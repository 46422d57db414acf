open Sss_sim
open Sss_net

type target = { src : int option; dst : int option; kinds : string list }

type rule = {
  target : target;
  drop : float;
  dup : float;
  delay : float;
  from_ : float;
  until : float;
}

type event =
  | Partition of { at : float; heal_at : float; groups : int list list }
  | Crash of { at : float; restart_at : float option; node : int }

type plan = { seed : int; rules : rule list; events : event list }

let empty = { seed = 0; rules = []; events = [] }

let crash_restart ~seed ~node ~at ~restart_at =
  { seed; rules = []; events = [ Crash { at; restart_at = Some restart_at; node } ] }

let default_rule =
  {
    target = { src = None; dst = None; kinds = [] };
    drop = 0.0;
    dup = 0.0;
    delay = 0.0;
    from_ = 0.0;
    until = Float.infinity;
  }

(* ------------------------------------------------------------------ *)
(* Validation                                                          *)

(* A check builds its message only if it fails: valid rules and crashes allocate nothing. *)
let node_problem ~nodes scope i what n ps =
  if n >= 0 && n < nodes then ps
  else Printf.sprintf "%s %d: %s %d out of range [0, %d)" scope i what n nodes :: ps

let problem ok scope i what x why ps =
  if ok then ps else Printf.sprintf "%s %d: %s %g %s" scope i what x why :: ps

let in_unit p = p >= 0.0 && p <= 1.0

let order_problem ok scope i what x why y ps =
  if ok then ps else Printf.sprintf "%s %d: %s %g %s %g" scope i what x why y :: ps

let rule_problems ~nodes i (r : rule) ps =
  let ps = problem (in_unit r.drop) "rule" i "drop" r.drop "outside [0, 1]" ps in
  let ps = problem (in_unit r.dup) "rule" i "dup" r.dup "outside [0, 1]" ps in
  let ps = problem (r.delay >= 0.0) "rule" i "delay" r.delay "negative" ps in
  let ps = match r.target.src with None -> ps | Some n -> node_problem ~nodes "rule" i "src" n ps in
  let ps = match r.target.dst with None -> ps | Some n -> node_problem ~nodes "rule" i "dst" n ps in
  let ps = problem (r.from_ >= 0.0) "rule" i "from" r.from_ "negative" ps in
  order_problem (not (r.from_ > r.until)) "rule" i "from" r.from_ "after until" r.until ps

let event_problems ~nodes i ev ps =
  match ev with
  | Partition { at; heal_at; groups } ->
      let ps = problem (at >= 0.0) "event" i "partition at" at "negative" ps in
      let ps = order_problem (heal_at > at) "event" i "heal" heal_at "not after at" at ps in
      let ps =
        if List.length groups >= 2 then ps
        else Printf.sprintf "event %d: partition needs >= 2 groups" i :: ps
      in
      let step (seen, ps) n =
        let ps = node_problem ~nodes "event" i "partition node" n ps in
        if List.mem n seen then (seen, Printf.sprintf "event %d: node %d in two groups" i n :: ps)
        else (n :: seen, ps)
      in
      snd (List.fold_left (List.fold_left step) ([], ps) groups)
  | Crash { at; restart_at; node } -> (
      let ps = problem (at >= 0.0) "event" i "crash at" at "negative" ps in
      let ps = node_problem ~nodes "event" i "crash node" node ps in
      match restart_at with
      | Some r -> order_problem (r > at) "event" i "restart" r "not after at" at ps
      | None -> ps)

let rec problems f ~nodes i ps = function
  | [] -> ps
  | x :: xs -> problems f ~nodes (i + 1) (f ~nodes i x ps) xs

let validate ~nodes plan =
  let ps = problems rule_problems ~nodes 0 [] plan.rules in
  match problems event_problems ~nodes 0 ps plan.events with
  | [] -> Ok ()
  | ps -> Error (String.concat "; " (List.rev ps))

(* ------------------------------------------------------------------ *)
(* DSL                                                                 *)

exception Bad of string

let bad fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt

(* Shortest decimal that parses back to exactly the same float; "inf" for
   open-ended windows. *)
let float_str f =
  if f = Float.infinity then "inf"
  else
    let s = Printf.sprintf "%.12g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let parse_float ~clause k v =
  match float_of_string_opt v with
  | Some f -> f
  | None -> bad "%s: %s=%S is not a number" clause k v

let parse_int ~clause k v =
  match int_of_string_opt v with
  | Some i -> i
  | None -> bad "%s: %s=%S is not an integer" clause k v

let split_kvs ~clause s =
  String.split_on_char ',' s
  |> List.filter_map (fun part ->
         let part = String.trim part in
         if part = "" then None
         else
           match String.index_opt part '=' with
           | None -> bad "%s: expected key=value, got %S" clause part
           | Some i ->
               Some
                 ( String.trim (String.sub part 0 i),
                   String.trim (String.sub part (i + 1) (String.length part - i - 1)) ))

let build_rule ~clause kvs =
  List.fold_left
    (fun r (k, v) ->
      match (clause, k) with
      | "drop", "p" -> { r with drop = parse_float ~clause k v }
      | "dup", "p" -> { r with dup = parse_float ~clause k v }
      | "delay", "mean" -> { r with delay = parse_float ~clause k v }
      | "rule", "drop" -> { r with drop = parse_float ~clause k v }
      | "rule", "dup" -> { r with dup = parse_float ~clause k v }
      | "rule", "delay" -> { r with delay = parse_float ~clause k v }
      | _, "kind" ->
          let kinds =
            String.split_on_char '+' v |> List.map String.trim
            |> List.filter (fun s -> s <> "")
          in
          { r with target = { r.target with kinds } }
      | _, "src" -> { r with target = { r.target with src = Some (parse_int ~clause k v) } }
      | _, "dst" -> { r with target = { r.target with dst = Some (parse_int ~clause k v) } }
      | _, "from" -> { r with from_ = parse_float ~clause k v }
      | _, "until" -> { r with until = parse_float ~clause k v }
      | _ -> bad "%s: unknown key %S" clause k)
    default_rule kvs

let build_partition ~clause kvs =
  let at = ref None and heal = ref None and groups = ref None in
  List.iter
    (fun (k, v) ->
      match k with
      | "at" -> at := Some (parse_float ~clause k v)
      | "heal" -> heal := Some (parse_float ~clause k v)
      | "groups" ->
          groups :=
            Some
              (String.split_on_char '|' v
              |> List.map (fun g ->
                     String.split_on_char '.' g |> List.map String.trim
                     |> List.filter (fun s -> s <> "")
                     |> List.map (fun s -> parse_int ~clause "groups" s)))
      | _ -> bad "%s: unknown key %S" clause k)
    kvs;
  match (!at, !heal, !groups) with
  | Some at, Some heal_at, Some groups -> Partition { at; heal_at; groups }
  | _ -> bad "%s: needs at=, heal= and groups=" clause

let build_crash ~clause kvs =
  let at = ref None and restart = ref None and node = ref None in
  List.iter
    (fun (k, v) ->
      match k with
      | "at" -> at := Some (parse_float ~clause k v)
      | "restart" -> restart := Some (parse_float ~clause k v)
      | "node" -> node := Some (parse_int ~clause k v)
      | _ -> bad "%s: unknown key %S" clause k)
    kvs;
  match (!at, !node) with
  | Some at, Some node -> Crash { at; restart_at = !restart; node }
  | _ -> bad "%s: needs at= and node=" clause

let parse s =
  try
    let plan =
      List.fold_left
        (fun plan clause ->
          let clause = String.trim clause in
          if clause = "" then plan
          else
            match String.index_opt clause '(' with
            | None -> (
                match String.index_opt clause '=' with
                | Some i when String.trim (String.sub clause 0 i) = "seed" ->
                    let v = String.trim (String.sub clause (i + 1) (String.length clause - i - 1)) in
                    { plan with seed = parse_int ~clause:"seed" "seed" v }
                | _ -> bad "unrecognised clause %S" clause)
            | Some i -> (
                let name = String.trim (String.sub clause 0 i) in
                if clause.[String.length clause - 1] <> ')' then
                  bad "%s: missing closing paren in %S" name clause;
                let args = String.sub clause (i + 1) (String.length clause - i - 2) in
                let kvs = split_kvs ~clause:name args in
                match name with
                | "drop" | "dup" | "delay" | "rule" ->
                    { plan with rules = plan.rules @ [ build_rule ~clause:name kvs ] }
                | "partition" ->
                    { plan with events = plan.events @ [ build_partition ~clause:name kvs ] }
                | "crash" -> { plan with events = plan.events @ [ build_crash ~clause:name kvs ] }
                | _ -> bad "unknown clause %S" name))
        empty
        (String.split_on_char ';' s)
    in
    Ok plan
  with Bad m -> Error m

let rule_str (r : rule) =
  let fl k x unset = if x = unset then [] else [ Printf.sprintf "%s=%s" k (float_str x) ] in
  let node k = function Some n -> [ Printf.sprintf "%s=%d" k n ] | None -> [] in
  let kinds = match r.target.kinds with [] -> [] | ks -> [ "kind=" ^ String.concat "+" ks ] in
  let parts =
    [ fl "drop" r.drop 0.0; fl "dup" r.dup 0.0; fl "delay" r.delay 0.0; kinds;
      node "src" r.target.src; node "dst" r.target.dst; fl "from" r.from_ 0.0;
      fl "until" r.until Float.infinity ]
  in
  "rule(" ^ String.concat "," (List.concat parts) ^ ")"

let event_str = function
  | Partition { at; heal_at; groups } ->
      Printf.sprintf "partition(at=%s,heal=%s,groups=%s)" (float_str at) (float_str heal_at)
        (String.concat "|"
           (List.map (fun g -> String.concat "." (List.map string_of_int g)) groups))
  | Crash { at; restart_at; node } ->
      let restart =
        match restart_at with Some r -> Printf.sprintf "restart=%s," (float_str r) | None -> ""
      in
      Printf.sprintf "crash(at=%s,%snode=%d)" (float_str at) restart node

let to_string p =
  String.concat "; "
    ((Printf.sprintf "seed=%d" p.seed :: List.map rule_str p.rules)
    @ List.map event_str p.events)

(* ------------------------------------------------------------------ *)
(* Installation                                                        *)

type handle = {
  mutable drops : int;
  mutable dups : int;
  mutable delays : int;
  mutable parts : int;
  mutable heals_n : int;
  mutable crashes_n : int;
  mutable restarts_n : int;
}

type stats = {
  injected_drops : int;
  injected_dups : int;
  injected_delays : int;
  partitions : int;
  heals : int;
  crashes : int;
  restarts : int;
}

let stats h =
  {
    injected_drops = h.drops;
    injected_dups = h.dups;
    injected_delays = h.delays;
    partitions = h.parts;
    heals = h.heals_n;
    crashes = h.crashes_n;
    restarts = h.restarts_n;
  }

let matches (r : rule) ~src ~dst ~kind ~now =
  (match r.target.src with None -> true | Some s -> s = src)
  && (match r.target.dst with None -> true | Some d -> d = dst)
  && (r.target.kinds = [] || List.mem kind r.target.kinds)
  && now >= r.from_ && now < r.until

(* Every (a, b) with a in a group and b in a later one: the links a
   partition cuts. *)
let rec cross_pairs = function
  | [] -> []
  | g :: rest ->
      List.concat_map (fun a -> List.map (fun b -> (a, b)) (List.concat rest)) g @ cross_pairs rest

let install sim net ~kind_of ?on_crash ?on_restart plan =
  let rng = Prng.create ~seed:plan.seed in
  let h =
    { drops = 0; dups = 0; delays = 0; parts = 0; heals_n = 0; crashes_n = 0; restarts_n = 0 }
  in
  let base = Sim.now sim in
  let delay_until t = Float.max 0.0 (t -. base) in
  List.iter
    (fun ev ->
      match ev with
      | Partition { at; heal_at; groups } ->
          let cut = cross_pairs groups in
          Sim.schedule_callback sim ~delay:(delay_until at) (fun () ->
              h.parts <- h.parts + 1;
              List.iter (fun (a, b) -> Network.sever net a b) cut);
          Sim.schedule_callback sim ~delay:(delay_until heal_at) (fun () ->
              h.heals_n <- h.heals_n + 1;
              List.iter (fun (a, b) -> Network.heal net a b) cut)
      | Crash { at; restart_at; node } ->
          Sim.schedule_callback sim ~delay:(delay_until at) (fun () ->
              h.crashes_n <- h.crashes_n + 1;
              Network.crash net node;
              match on_crash with Some f -> f node | None -> ());
          Option.iter
            (fun r ->
              Sim.schedule_callback sim ~delay:(delay_until r) (fun () ->
                  h.restarts_n <- h.restarts_n + 1;
                  (* a durable protocol replays its log first and reconnects
                     the NIC itself once recovery completes *)
                  match on_restart with
                  | Some f -> f node
                  | None -> Network.recover net node))
            restart_at)
    plan.events;
  if plan.rules <> [] then
    Network.set_perturb net
      (Some
         (fun ~src ~dst msg ->
           let now = Sim.now sim in
           let kind = kind_of msg in
           let f =
             List.fold_left
               (fun (acc : Network.fault) r ->
                 if matches r ~src ~dst ~kind ~now then begin
                   let acc =
                     if r.drop > 0.0 && Prng.float rng 1.0 < r.drop then
                       { acc with Network.drop = true }
                     else acc
                   in
                   let acc =
                     if r.dup > 0.0 && Prng.float rng 1.0 < r.dup then
                       { acc with Network.duplicates = acc.Network.duplicates + 1 }
                     else acc
                   in
                   if r.delay > 0.0 then
                     { acc with Network.extra_delay = acc.Network.extra_delay +. Prng.float rng (2.0 *. r.delay) }
                   else acc
                 end
                 else acc)
               Network.no_fault plan.rules
           in
           if f.Network.drop then h.drops <- h.drops + 1;
           if f.Network.duplicates > 0 then h.dups <- h.dups + f.Network.duplicates;
           if f.Network.extra_delay > 0.0 then h.delays <- h.delays + 1;
           f));
  h
