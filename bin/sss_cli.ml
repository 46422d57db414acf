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

(* The flags both commands share, as the spec they describe (each command
   its own defaults): a quarter of the measured window is warmup. *)
let spec_t ~nodes ~keys ~clients ~duration =
  let make system nodes degree keys ro clients duration seed =
    Spec.make ~ro ~clients ~warmup:(duration /. 4.0) ~duration system
      { Sss_kv.Config.default with nodes; total_keys = keys; seed;
        replication_degree = Option.value degree ~default:(Store.paper_degree system) }
  in
  let int_t default name doc = Arg.(value & opt int default & info [ name ] ~doc) in
  Term.(
    const make
    $ Arg.(
        value & opt system_conv Sss
        & info [ "system" ] ~docv:"SYSTEM" ~doc:"sss, walter, 2pc or rococo")
    $ int_t nodes "nodes" "cluster size"
    $ Arg.(
        value & opt (some int) None
        & info [ "degree" ] ~doc:"replication degree (default: 1 for rococo, else 2)")
    $ int_t keys "keys" "key-space size"
    $ Arg.(value & opt float 0.5 & info [ "ro" ] ~doc:"read-only transaction ratio")
    $ int_t clients "clients" "closed-loop clients per node"
    $ Arg.(
        value & opt float duration & info [ "duration" ] ~doc:"measured window (virtual seconds)")
    $ int_t 42 "seed" "PRNG seed")

let ro_ops_t = Arg.(value & opt int 2 & info [ "ro-ops" ] ~doc:"reads per read-only transaction")
let locality_t = Arg.(value & opt float 0.0 & info [ "locality" ] ~doc:"node-local key probability")

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

(* Both commands check their spec before any cluster is built: one that
   [Spec.check] refuses is reported on stderr with exit 2. *)
let refuse_invalid cmd =
  Result.iter_error (fun msg ->
      Printf.eprintf "sss-cli %s: %s\n" cmd msg;
      exit 2)

let point_cmd =
  let run_point (spec : Spec.t) ro_ops locality strict observe durable rate queue workers =
    let system = spec.system in
    let spec =
      { spec with
        config =
          { spec.config with record_history = false; strict_order = strict; observe;
            durability = durable };
        profile = { spec.profile with ro_ops; locality };
        load =
          { spec.load with
            open_loop =
              (* --rate 0 is the closed loop; with a negative --rate or
                 --queue, an open loop the check refuses *)
              (if rate = 0.0 && queue >= 0 then None
               else
                 Some { arrival = Poisson rate; queue_capacity = queue; workers_per_node = workers })
          } }
    in
    refuse_invalid "point" (Spec.check spec);
    let o = run spec in
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
      const run_point
      $ spec_t ~nodes:5 ~keys:5000 ~clients:10 ~duration:0.04
      $ ro_ops_t $ locality_t $ strict_t $ observe_t $ durable_t $ rate_t $ queue_t $ workers_t)
  in
  Cmd.v (Cmd.info "point" ~doc:"Run a single experiment point") term

let verify_cmd =
  let run_verify (spec : Spec.t) dot =
    let open Sss_consistency in
    (* a --dot path that cannot be written is refused before the run too *)
    refuse_invalid "verify"
      (match Option.map (fun path -> (path, Filename.dirname path)) dot with
      | Some (path, dir) when not (Sys.file_exists dir && Sys.is_directory dir) ->
          Error (Printf.sprintf "--dot %s: no directory %S" path dir)
      | _ -> Spec.check spec);
    let r = Spec.run spec in
    Printf.printf "run: %s\n" (Spec.to_string spec);
    Printf.printf "transactions: %d committed, %d aborted\n"
      (Checker.committed_count r.store.history)
      (Checker.aborted_count r.store.history);
    let verdicts = Store.verdicts spec.system r.store.history ~quiescent:(r.store.quiescent ()) in
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
        output_string oc (Checker.to_dot r.store.history);
        close_out oc;
        Printf.printf "dependency graph written to %s\n" path);
    exit (Store.exit_code verdicts)
  in
  let dot_t =
    Arg.(value & opt (some string) None & info [ "dot" ] ~doc:"write the dependency graph (Graphviz)")
  in
  let term =
    Term.(const run_verify $ spec_t ~nodes:4 ~keys:64 ~clients:4 ~duration:0.05 $ dot_t)
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
