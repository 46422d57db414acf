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

type t = {
  system : system;
  sim : Sss_sim.Sim.t;
  workload : profile:Driver.profile -> load:Driver.load -> Driver.result;
  history : History.t;
  obs : Sss_obs.Obs.t option;
  network_stats : unit -> Network.stats;
  store_words : unit -> int;
  store_repr : Ids.node -> Obj.t;
  quiescent : unit -> (unit, string) result;
  chaos : Chaos.plan -> Chaos.handle;
  kv : Sss_kv.Kv.cluster option;
}

let of_store (type c) (module S : Sss_kv.Runtime.STORE with type cluster = c)
    ~(kv : c -> Sss_kv.Kv.cluster option) system sim (config : Sss_kv.Config.t) =
  let cl = S.create sim config in
  {
    system;
    sim;
    workload =
      (fun ~profile ~load ->
        Driver.run sim ~nodes:config.nodes ~total_keys:config.total_keys
          ~local_keys:(S.local_keys cl) ~profile ~load
          ~ops:
            {
              Driver.begin_txn = (fun ~node ~read_only -> S.begin_txn cl ~node ~read_only);
              read = S.read;
              write = S.write;
              commit = S.commit;
            });
    history = S.history cl;
    obs = S.obs cl;
    network_stats = (fun () -> Network.stats (S.network cl));
    store_words = (fun () -> S.store_words cl);
    store_repr = S.store_repr cl;
    quiescent = (fun () -> S.quiescent cl);
    chaos =
      (* a lambda, so a run without a plan builds no hook closures *)
      (fun plan ->
        Chaos.install sim (S.network cl) ~kind_of:S.message_kind ~on_crash:(S.crash_node cl)
          ~on_restart:(S.restart_node cl) plan);
    kv = kv cl;
  }

(* The one place outside perfbench that names each protocol's module
   (perfbench/cell.ml still repeats this dispatch): every other harness
   reaches a store through here, by way of [Spec.run]. *)
let create system =
  let none _ = None in
  match system with
  | Sss -> of_store (module Sss_kv.Kv) ~kv:Option.some system
  | Walter -> of_store (module Walter_kv.Walter) ~kv:none system
  | Twopc -> of_store (module Twopc_kv.Twopc) ~kv:none system
  | Rococo -> of_store (module Rococo_kv.Rococo) ~kv:none system

(* The paper runs ROCOCO unreplicated (§V); the others at degree 2. *)
let paper_degree = function Rococo -> 1 | Sss | Walter | Twopc -> 2

type run = {
  store : t;
  result : Driver.result;
  des_events : int;
  virtual_seconds : float;
  network : Network.stats;
  store_words : int;
  chaos : Chaos.stats option;
}

let drive ?chaos store ~profile ~load =
  let result = store.workload ~profile ~load in
  {
    store;
    result;
    des_events = Sss_sim.Sim.events_processed store.sim;
    virtual_seconds = Sss_sim.Sim.now store.sim;
    network = store.network_stats ();
    store_words = store.store_words ();
    chaos = Option.map Chaos.stats chaos;
  }

type verdict = Pass | Fail of string | Not_promised

(* Every checker property in report order, with the systems that promise it. *)
let properties =
  [
    ("external-consistency", Checker.external_consistency, [ Sss; Twopc ]);
    ("serializability", Checker.serializability, [ Sss; Rococo ]);
    ("no-lost-updates", Checker.no_lost_updates, [ Sss; Walter; Twopc; Rococo ]);
    ("no-torn-commits", Checker.no_torn_commits, [ Sss; Walter; Twopc; Rococo ]);
    ("ro-abort-free", Checker.read_only_abort_free, [ Sss; Walter ]);
  ]

let verdicts system history ~quiescent =
  let verdict = function Ok () -> Pass | Error msg -> Fail msg in
  List.map
    (fun (name, check, promised) ->
      (name, if List.mem system promised then verdict (check history) else Not_promised))
    properties
  @ [ ("quiescent", verdict quiescent) ]

let exit_code vs = if List.exists (function _, Fail _ -> true | _ -> false) vs then 1 else 0
