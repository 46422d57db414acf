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
  sim : Sss_sim.Sim.t;
  config : Sss_kv.Config.t;
  ops : 'h Driver.ops;
  local_keys : Ids.node -> Ids.key array;
  history : History.t;
  obs : Sss_obs.Obs.t option;
  network_stats : unit -> Network.stats;
  store_words : unit -> int;
  quiescent : unit -> (unit, string) result;
  chaos : Chaos.plan -> Chaos.handle;
  kv : Sss_kv.Kv.cluster option;
}

type any = Store : 'h t -> any

module Of (S : Sss_kv.Runtime.STORE) = struct
  let create ~kv system sim config =
    let cl = S.create sim config in
    Store
      {
        system;
        sim;
        config;
        ops =
          {
            Driver.begin_txn = (fun ~node ~read_only -> S.begin_txn cl ~node ~read_only);
            read = S.read;
            write = S.write;
            commit = S.commit;
          };
        local_keys = S.local_keys cl;
        history = S.history cl;
        obs = S.obs cl;
        network_stats = (fun () -> Network.stats (S.network cl));
        store_words = (fun () -> S.store_words cl);
        quiescent = (fun () -> S.quiescent cl);
        chaos =
          Chaos.install sim (S.network cl) ~kind_of:S.message_kind
            ~on_crash:(S.crash_node cl) ~on_restart:(S.restart_node cl);
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

(* The paper runs ROCOCO unreplicated (§V); the others at degree 2. *)
let paper_degree = function Rococo -> 1 | Sss | Walter | Twopc -> 2

type run = {
  system : system;
  result : Driver.result;
  des_events : int;
  virtual_seconds : float;
  network : Network.stats;
  store_words : int;
  history : History.t;
  obs : Sss_obs.Obs.t option;
  quiescent : unit -> (unit, string) result;
  kv : Sss_kv.Kv.cluster option;
}

let drive ?plan (s : _ t) ~profile ~load =
  Option.iter (fun plan -> ignore (s.chaos plan : Chaos.handle)) plan;
  let result =
    Driver.run s.sim ~nodes:s.config.nodes ~total_keys:s.config.total_keys
      ~local_keys:s.local_keys ~profile ~load ~ops:s.ops
  in
  {
    system = s.system;
    result;
    des_events = Sss_sim.Sim.events_processed s.sim;
    virtual_seconds = Sss_sim.Sim.now s.sim;
    network = s.network_stats ();
    store_words = s.store_words ();
    history = s.history;
    obs = s.obs;
    quiescent = s.quiescent;
    kv = s.kv;
  }

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
