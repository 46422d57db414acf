open Sss_data
module Driver = Sss_workload.Driver
module Chaos = Sss_chaos.Chaos
module Checker = Sss_consistency.Checker
module History = Sss_consistency.History
module Network = Sss_net.Network

type system = Sss | Walter | Twopc | Rococo

let system_name = function
  | Sss -> "SSS"
  | Walter -> "Walter"
  | Twopc -> "2PC"
  | Rococo -> "ROCOCO"

type property =
  | External_consistency
  | Serializability
  | No_lost_updates
  | No_torn_commits
  | Ro_abort_free

let properties =
  [ External_consistency; Serializability; No_lost_updates; No_torn_commits; Ro_abort_free ]

let property_name = function
  | External_consistency -> "external-consistency"
  | Serializability -> "serializability"
  | No_lost_updates -> "no-lost-updates"
  | No_torn_commits -> "no-torn-commits"
  | Ro_abort_free -> "ro-abort-free"

let check = function
  | External_consistency -> Checker.external_consistency
  | Serializability -> Checker.serializability
  | No_lost_updates -> Checker.no_lost_updates
  | No_torn_commits -> Checker.no_torn_commits
  | Ro_abort_free -> Checker.read_only_abort_free

let promises = function
  | Sss -> properties
  | Twopc -> [ External_consistency; No_lost_updates; No_torn_commits ]
  | Walter -> [ No_lost_updates; No_torn_commits; Ro_abort_free ]
  | Rococo -> [ Serializability; No_lost_updates; No_torn_commits ]

type 'h t = {
  system : system;
  ops : 'h Driver.ops;
  txn_id : 'h -> Ids.txn;
  local_keys : Ids.node -> Ids.key array;
  history : History.t;
  obs : Sss_obs.Obs.t option;
  network_stats : unit -> Network.stats;
  store_words : unit -> int;
  quiescent : unit -> (unit, string) result;
  chaos : ?durable:bool -> Chaos.plan -> Chaos.handle;
  promises : property list;
  kv : Sss_kv.Kv.cluster option;
}

type any = Store : 'h t -> any

module Of (S : Sss_kv.Runtime.STORE) = struct
  let create ~kv system sim config =
    let cl = S.create sim config in
    Store
      {
        system;
        ops =
          {
            Driver.begin_txn = (fun ~node ~read_only -> S.begin_txn cl ~node ~read_only);
            read = S.read;
            write = S.write;
            commit = S.commit;
          };
        txn_id = S.txn_id;
        local_keys = S.local_keys cl;
        history = S.history cl;
        obs = S.obs cl;
        network_stats = (fun () -> Network.stats (S.network cl));
        store_words = (fun () -> S.store_words cl);
        quiescent = (fun () -> S.quiescent cl);
        chaos =
          (fun ?(durable = false) plan ->
            let kind_of = S.message_kind in
            if durable then
              Chaos.install sim (S.network cl) ~kind_of ~on_crash:(S.crash_node cl)
                ~on_restart:(S.restart_node cl) plan
            else Chaos.install sim (S.network cl) ~kind_of plan);
        promises = promises system;
        kv = kv cl;
      }
end

(* The one place that names each protocol's module: every harness reaches
   a store through here. *)
let create system =
  let none _ = None in
  match system with
  | Sss ->
      let module M = Of (Sss_kv.Kv) in
      M.create ~kv:Option.some system
  | Walter ->
      let module M = Of (Walter_kv.Walter) in
      M.create ~kv:none system
  | Twopc ->
      let module M = Of (Twopc_kv.Twopc) in
      M.create ~kv:none system
  | Rococo ->
      let module M = Of (Rococo_kv.Rococo) in
      M.create ~kv:none system

(* The promised properties over [history], then quiescence. *)
let checked system history ~quiescent =
  List.map (fun p -> (property_name p, check p history)) (promises system)
  @ [ ("quiescent", quiescent) ]

let checks s = checked s.system s.history ~quiescent:(s.quiescent ())

(* The paper runs ROCOCO unreplicated (§V); the others at degree 2. *)
let paper_degree = function Rococo -> 1 | Sss | Walter | Twopc -> 2

type report = {
  system : system;
  committed : int;
  des_events : int;
  history : History.t;
  quiescent : (unit, string) result;
  metrics : string option;
}

let drive ?plan ?(durable = false) system (config : Sss_kv.Config.t) ~ro ~clients ~warmup
    ~duration =
  let sim = Sss_sim.Sim.create () in
  let (Store s) = create system sim config in
  Option.iter (fun plan -> ignore (s.chaos ~durable plan : Chaos.handle)) plan;
  let r =
    Driver.run sim ~nodes:config.nodes ~total_keys:config.total_keys ~local_keys:s.local_keys
      ~profile:(Driver.paper_profile ~read_only_ratio:ro)
      ~load:
        {
          Driver.default_load with
          clients_per_node = clients;
          warmup;
          duration;
          seed = config.seed;
        }
      ~ops:s.ops
  in
  {
    system;
    committed = r.Driver.committed;
    des_events = Sss_sim.Sim.events_processed sim;
    history = s.history;
    quiescent = s.quiescent ();
    metrics = Option.map Sss_obs.Obs.metrics_json s.obs;
  }

let report_checks r = checked r.system r.history ~quiescent:r.quiescent

type verdict = Pass | Fail of string | Not_promised

let verdicts system history ~quiescent =
  let promised = promises system in
  List.map
    (fun p ->
      ( property_name p,
        if not (List.mem p promised) then Not_promised
        else match check p history with Ok () -> Pass | Error msg -> Fail msg ))
    properties
  @ [ ("quiescent", match quiescent with Ok () -> Pass | Error msg -> Fail msg) ]

let exit_code vs = if List.exists (function _, Fail _ -> true | _ -> false) vs then 1 else 0
