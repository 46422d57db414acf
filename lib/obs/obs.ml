type gauge = { mutable current : int; mutable peak : int }

type t = {
  counters : (string, int ref) Hashtbl.t;
  hists : (string, Hist.t) Hashtbl.t;
  gauges : (string, gauge) Hashtbl.t;
}

let create () =
  { counters = Hashtbl.create 16; hists = Hashtbl.create 16; gauges = Hashtbl.create 16 }

let incr t name =
  match Hashtbl.find_opt t.counters name with
  | Some r -> Stdlib.incr r
  | None -> Hashtbl.replace t.counters name (ref 1)

let add t name n =
  match Hashtbl.find_opt t.counters name with
  | Some r -> r := !r + n
  | None -> Hashtbl.replace t.counters name (ref n)

let observe t name v =
  match Hashtbl.find_opt t.hists name with
  | Some h -> Hist.observe h v
  | None ->
      let h = Hist.create () in
      Hist.observe h v;
      Hashtbl.replace t.hists name h

let gauge_set t name v =
  match Hashtbl.find_opt t.gauges name with
  | Some g ->
      g.current <- v;
      if v > g.peak then g.peak <- v
  | None -> Hashtbl.replace t.gauges name { current = v; peak = v }

let counter t name = match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0

(* All registry read-backs sort by name: Hashtbl order must never reach
   output (same discipline lint rule R4 enforces on protocol state). *)
let sorted_bindings fold tbl =
  List.sort (fun (a, _) (b, _) -> String.compare a b) (fold (fun k v acc -> (k, v) :: acc) tbl [])

let counters t =
  List.map (fun (k, r) -> (k, !r))
    (sorted_bindings (Hashtbl.fold [@order_ok]) t.counters)

let hist t name = Hashtbl.find_opt t.hists name

let hists t = sorted_bindings (Hashtbl.fold [@order_ok]) t.hists

let gauges t =
  List.map (fun (k, g) -> (k, (g.current, g.peak))) (sorted_bindings (Hashtbl.fold [@order_ok]) t.gauges)

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let metrics_json t =
  let b = Buffer.create 4096 in
  let obj b fmt_binding = function
    | [] -> Buffer.add_string b "{}"
    | bindings ->
        Buffer.add_char b '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char b ',';
            Buffer.add_string b (Printf.sprintf {|"%s":|} (escape k));
            fmt_binding b v)
          bindings;
        Buffer.add_char b '}'
  in
  Buffer.add_string b {|{"counters":|};
  obj b (fun b v -> Buffer.add_string b (string_of_int v)) (counters t);
  Buffer.add_string b {|,"histograms":|};
  obj b (fun b h -> Buffer.add_string b (Hist.to_json h)) (hists t);
  Buffer.add_string b {|,"gauges":|};
  obj b
    (fun b (current, peak) ->
      Buffer.add_string b (Printf.sprintf {|{"current":%d,"peak":%d}|} current peak))
    (gauges t);
  Buffer.add_char b '}';
  Buffer.contents b
