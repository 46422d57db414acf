(* Command-line interface to the SSS reproduction.

   sss-cli point   -- run one experiment point (any system, any parameters)
   sss-cli verify  -- run a recorded workload and check consistency

   The paper's figures are regenerated by bench/main.exe.

   Examples:
     dune exec bin/sss_cli.exe -- point --system sss --nodes 10 --ro 0.8
     dune exec bin/sss_cli.exe -- verify --nodes 4 --keys 24 --seed 7 *)

open Cmdliner
open Sss_experiments.Experiments
module Store = Sss_experiments.Store
module Spec = Sss_experiments.Spec

let system_conv =
  let parse = function
    | "sss" -> Ok Sss
    | "walter" -> Ok Walter
    | "2pc" | "twopc" -> Ok Twopc
    | "rococo" -> Ok Rococo
    | s -> Error (`Msg (Printf.sprintf "unknown system %S (sss|walter|2pc|rococo)" s))
  in
  let print fmt s = Format.pp_print_string fmt (String.lowercase_ascii (system_name s)) in
  Arg.conv (parse, print)

let system_t =
  Arg.(value & opt system_conv Sss & info [ "system" ] ~docv:"SYSTEM" ~doc:"sss, walter, 2pc or rococo")

let nodes_t = Arg.(value & opt int 5 & info [ "nodes" ] ~doc:"cluster size")
let degree_t =
  Arg.(
    value
    & opt (some int) None
    & info [ "degree" ] ~doc:"replication degree (default: 1 for rococo, else 2)")
let keys_t = Arg.(value & opt int 5000 & info [ "keys" ] ~doc:"key-space size")
let ro_t = Arg.(value & opt float 0.5 & info [ "ro" ] ~doc:"read-only transaction ratio")
let ro_ops_t = Arg.(value & opt int 2 & info [ "ro-ops" ] ~doc:"reads per read-only transaction")
let locality_t = Arg.(value & opt float 0.0 & info [ "locality" ] ~doc:"node-local key probability")
let clients_t = Arg.(value & opt int 10 & info [ "clients" ] ~doc:"closed-loop clients per node")
let duration_t = Arg.(value & opt float 0.04 & info [ "duration" ] ~doc:"measured window (virtual seconds)")
let seed_t = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"PRNG seed")

let strict_t =
  Arg.(value & flag & info [ "strict" ] ~doc:"SSS hardened external-commit ordering")

let observe_t =
  Arg.(value & flag & info [ "observe" ] ~doc:"attach the sss_obs sink and print its metrics JSON")

let durable_t =
  Arg.(value & flag & info [ "durable" ] ~doc:"write-ahead logging on every node")

let rate_t =
  Arg.(
    value & opt float 0.0
    & info [ "rate" ]
        ~doc:"open-loop Poisson arrivals per second per node (0 = closed loop)")

let queue_t =
  Arg.(value & opt int 64 & info [ "queue" ] ~doc:"open loop: admission-queue capacity per node")

let workers_t =
  Arg.(value & opt int 10 & info [ "workers" ] ~doc:"open loop: service fibers per node")

(* Both commands check their arguments before any cluster is built: a bad
   one is reported on stderr with exit 2.  [degree] is the resolved
   replication degree, [fibers] names the per-node fiber count of the loop
   that drives the run (--clients or --workers); [ro_ops], [rate] and
   [queue] are point's options. *)
let check_args ?(ro_ops = 1) ?(rate = 0.0) ?(queue = 0) cmd ~system ~nodes ~degree ~keys ~ro
    ~locality ~duration ~fibers:(flag, n) =
  let ratio x = 0.0 <= x && x <= 1.0 in
  List.iter
    (fun (ok, msg) ->
      if not ok then begin
        Printf.eprintf "sss-cli %s: %s\n" cmd msg;
        exit 2
      end)
    [
      (nodes >= 1, Printf.sprintf "--nodes %d: need at least 1" nodes);
      ( 1 <= degree && degree <= nodes,
        Printf.sprintf "--degree %d: need 1 <= degree <= nodes (%d)" degree nodes );
      ( system <> Rococo || degree = 1,
        Printf.sprintf "--degree %d: rococo runs only at degree 1 (above it, it stalls)" degree );
      (ro_ops >= 1, Printf.sprintf "--ro-ops %d: need at least 1 read" ro_ops);
      (keys >= 1, Printf.sprintf "--keys %d: need at least 1" keys);
      (ratio ro, Printf.sprintf "--ro %g: need a ratio in [0, 1]" ro);
      (ratio locality, Printf.sprintf "--locality %g: need a probability in [0, 1]" locality);
      (duration > 0.0, Printf.sprintf "--duration %g: need a positive window" duration);
      (n >= 1, Printf.sprintf "%s %d: need at least 1" flag n);
      (rate >= 0.0, Printf.sprintf "--rate %g: need a rate >= 0 (0 = closed loop)" rate);
      (queue >= 0, Printf.sprintf "--queue %d: need a capacity >= 0" queue);
    ]

let point_cmd =
  let run_point system nodes degree keys ro ro_ops locality clients duration seed strict observe
      durable rate queue workers =
    let degree = Option.value degree ~default:(Store.paper_degree system) in
    check_args "point" ~ro_ops ~rate ~queue ~system ~nodes ~degree ~keys ~ro ~locality ~duration
      ~fibers:(if rate > 0.0 then ("--workers", workers) else ("--clients", clients));
    let base = base_spec Full in
    let o =
      run
        {
          system;
          config =
            { base.config with nodes; replication_degree = degree; total_keys = keys; seed;
              strict_order = strict; observe; durability = durable };
          profile = { base.profile with read_only_ratio = ro; ro_ops; locality };
          load =
            { base.load with clients_per_node = clients; warmup = duration /. 4.0; duration; seed;
              open_loop =
                (if rate > 0.0 then
                   Some
                     { arrival = Poisson rate; queue_capacity = queue; workers_per_node = workers }
                 else None) };
          plan = None;
        }
    in
    Printf.printf "system      : %s\n" (system_name system);
    Printf.printf "throughput  : %.1f KTxs/sec\n" (o.throughput /. 1000.);
    Printf.printf "committed   : %d\n" o.committed;
    Printf.printf "aborted     : %d (%.1f%%)\n" o.aborted (o.abort_rate *. 100.);
    Printf.printf "latency     : mean %.3f ms, p99 %.3f ms\n" (o.mean_latency *. 1e3)
      (o.p99_latency *. 1e3);
    Printf.printf "  update    : mean %.3f ms\n" (o.mean_update_latency *. 1e3);
    Printf.printf "  read-only : mean %.3f ms\n" (o.mean_ro_latency *. 1e3);
    (match (o.sss_internal, o.sss_wait) with
    | Some i, Some w ->
        Printf.printf "  SSS breakdown: internal %.3f ms + snapshot-queue wait %.3f ms (%.0f%%)\n"
          (i *. 1e3) (w *. 1e3)
          (100. *. w /. (i +. w))
    | _ -> ());
    if o.wait_covered_timeouts > 0 then
      Printf.printf "  WARNING: %d covered-wait timeouts\n" o.wait_covered_timeouts;
    if rate > 0.0 then begin
      Printf.printf "open loop   : offered %d, accepted %d, rejected %d (%.1f%%)\n" o.offered
        o.accepted o.rejected
        (100. *. float_of_int o.rejected /. float_of_int (max 1 o.offered));
      Printf.printf "  sojourn   : mean %.3f ms, p99 %.3f ms (queue wait mean %.3f ms)\n"
        (o.mean_sojourn *. 1e3) (o.p99_sojourn *. 1e3)
        (o.mean_queue_wait *. 1e3)
    end;
    if system = Sss then
      Printf.printf "gc          : %d versions retained, %d versions + %d log entries dropped\n"
        o.store_versions o.gc_dropped_versions o.gc_dropped_entries;
    (let m = o.store_mem in
     if m.Sss_data.Mvstore.versions > 0 then
       Printf.printf
         "store       : %d words resident (%.2f words/version; slots %d, clocks %d, index \
          %d, values %d)\n"
         (Sss_data.Mvstore.mem_total m)
         (Sss_data.Mvstore.words_per_version m)
         m.Sss_data.Mvstore.slot_words m.Sss_data.Mvstore.clock_words
         m.Sss_data.Mvstore.index_words m.Sss_data.Mvstore.value_words
     else if o.store_words > 0 then
       Printf.printf "store       : %d words resident (modelled)\n" o.store_words);
    match o.metrics with
    | Some json -> Printf.printf "metrics     : %s\n" json
    | None -> ()
  in
  let term =
    Term.(
      const run_point $ system_t $ nodes_t $ degree_t $ keys_t $ ro_t $ ro_ops_t $ locality_t
      $ clients_t $ duration_t $ seed_t $ strict_t $ observe_t $ durable_t $ rate_t $ queue_t
      $ workers_t)
  in
  Cmd.v (Cmd.info "point" ~doc:"Run a single experiment point") term

let verify_cmd =
  let run_verify system nodes degree keys ro clients duration seed dot =
    let open Sss_consistency in
    let degree = Option.value degree ~default:(Store.paper_degree system) in
    check_args "verify" ~system ~nodes ~degree ~keys ~ro ~locality:0.0 ~duration
      ~fibers:("--clients", clients);
    (* a --dot path that cannot be written is refused before the run *)
    (match dot with
    | Some path ->
        let dir = Filename.dirname path in
        if not (Sys.file_exists dir && Sys.is_directory dir) then begin
          Printf.eprintf "sss-cli verify: --dot %s: no directory %S\n" path dir;
          exit 2
        end
    | None -> ());
    let spec =
      Spec.make ~ro ~clients ~warmup:(duration /. 4.0) ~duration system
        { Sss_kv.Config.default with nodes; replication_degree = degree; total_keys = keys; seed }
    in
    let r = Spec.run spec in
    Printf.printf "run: %s\n" (Spec.to_string spec);
    Printf.printf "transactions: %d committed, %d aborted\n"
      (Checker.committed_count r.history)
      (Checker.aborted_count r.history);
    let verdicts = Store.verdicts system r.history ~quiescent:(r.quiescent ()) in
    List.iter
      (fun (name, v) ->
        match v with
        | Store.Pass -> Printf.printf "  %-34s PASS\n" name
        | Fail msg -> Printf.printf "  %-34s FAIL: %s\n" name msg
        | Not_promised -> Printf.printf "  %-34s n/a (not promised)\n" name)
      verdicts;
    (match dot with
    | None -> ()
    | Some path ->
        let oc = open_out path in
        output_string oc (Checker.to_dot r.history);
        close_out oc;
        Printf.printf "dependency graph written to %s\n" path);
    exit (Store.exit_code verdicts)
  in
  let duration_t =
    Arg.(value & opt float 0.05 & info [ "duration" ] ~doc:"measured window (virtual seconds)")
  in
  let keys_t = Arg.(value & opt int 64 & info [ "keys" ] ~doc:"key-space size") in
  let clients_t = Arg.(value & opt int 4 & info [ "clients" ] ~doc:"clients per node") in
  let nodes_t = Arg.(value & opt int 4 & info [ "nodes" ] ~doc:"cluster size") in
  let dot_t =
    Arg.(value & opt (some string) None & info [ "dot" ] ~doc:"write the dependency graph (Graphviz)")
  in
  let term =
    Term.(
      const run_verify $ system_t $ nodes_t $ degree_t $ keys_t $ ro_t $ clients_t $ duration_t
      $ seed_t $ dot_t)
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Run a recorded workload and check the properties the system promises; exits 1 \
          when one fails")
    term

let () =
  let info = Cmd.info "sss-cli" ~doc:"SSS (ICDCS'19) reproduction toolkit" in
  exit (Cmd.eval (Cmd.group info [ point_cmd; verify_cmd ]))
