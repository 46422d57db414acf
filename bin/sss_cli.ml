(* Command-line interface to the SSS reproduction.

   sss-cli point   -- run one experiment point (any system, any parameters)
   sss-cli figure  -- regenerate one of the paper's figures
   sss-cli verify  -- run a recorded workload and check consistency

   Examples:
     dune exec bin/sss_cli.exe -- point --system sss --nodes 10 --ro 0.8
     dune exec bin/sss_cli.exe -- figure fig3 --scale quick
     dune exec bin/sss_cli.exe -- verify --nodes 4 --keys 24 --seed 7 *)

open Cmdliner
open Sss_experiments.Experiments

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

let scale_conv =
  let parse s =
    match scale_of_string s with
    | Some scale -> Ok scale
    | None -> Error (`Msg (Printf.sprintf "unknown scale %S (full|quick|smoke)" s))
  in
  Arg.conv (parse, fun fmt s -> Format.pp_print_string fmt (scale_name s))

let system_t =
  Arg.(value & opt system_conv Sss & info [ "system" ] ~docv:"SYSTEM" ~doc:"sss, walter, 2pc or rococo")

let nodes_t = Arg.(value & opt int 5 & info [ "nodes" ] ~doc:"cluster size")
let degree_t = Arg.(value & opt int 2 & info [ "degree" ] ~doc:"replication degree")
let keys_t = Arg.(value & opt int 5000 & info [ "keys" ] ~doc:"key-space size")
let ro_t = Arg.(value & opt float 0.5 & info [ "ro" ] ~doc:"read-only transaction ratio")
let ro_ops_t = Arg.(value & opt int 2 & info [ "ro-ops" ] ~doc:"reads per read-only transaction")
let locality_t = Arg.(value & opt float 0.0 & info [ "locality" ] ~doc:"node-local key probability")
let clients_t = Arg.(value & opt int 10 & info [ "clients" ] ~doc:"closed-loop clients per node")
let duration_t = Arg.(value & opt float 0.04 & info [ "duration" ] ~doc:"measured window (virtual seconds)")
let seed_t = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"PRNG seed")
let scale_t = Arg.(value & opt scale_conv Quick & info [ "scale" ] ~doc:"full, quick or smoke")

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

let point_cmd =
  let run_point system nodes degree keys ro ro_ops locality clients duration seed strict observe
      durable rate queue workers =
    let o =
      run
        {
          default_params with
          system;
          nodes;
          degree;
          keys;
          ro_ratio = ro;
          ro_ops;
          locality;
          clients;
          warmup = duration /. 4.0;
          duration;
          seed;
          strict;
          observe;
          durability = durable;
          arrival = (if rate > 0.0 then Some (Sss_workload.Driver.Poisson rate) else None);
          queue_capacity = queue;
          workers;
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

let figure_cmd =
  let figure_t =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FIGURE" ~doc:(String.concat " " (figure_names @ [ "all" ])))
  in
  let jobs_t =
    let jobs_conv =
      Arg.conv
        ( (fun s ->
            match parse_jobs s with
            | Some n -> Ok n
            | None -> Error (`Msg (Printf.sprintf "bad jobs value %S (N or \"max\")" s))),
          fun ppf n -> Format.fprintf ppf "%d" n )
    in
    Arg.(
      value & opt jobs_conv 1
      & info [ "j"; "jobs" ]
          ~doc:"Fan the figure's runs across $(docv) domains (\"max\" = all cores)."
          ~docv:"N")
  in
  let run_figure name scale jobs slo_ms =
    Sss_sim.Sim.tune_gc ();
    match figure ?slo_ms name with
    | Some fig -> ignore (fig (ctx ~jobs ()) scale)
    | None -> Printf.eprintf "unknown figure %s\n" name
  in
  let slo_t =
    Arg.(
      value
      & opt (some float) None
      & info [ "slo" ] ~docv:"MS"
          ~doc:"Saturation figure: p99 sojourn SLO bound in milliseconds (default 5).")
  in
  let term = Term.(const run_figure $ figure_t $ scale_t $ jobs_t $ slo_t) in
  Cmd.v (Cmd.info "figure" ~doc:"Regenerate one of the paper's figures") term

let verify_cmd =
  let run_verify system nodes degree keys ro clients duration seed dot =
    let open Sss_consistency in
    let r =
      Sss_experiments.Store.drive system
        { Sss_kv.Config.default with nodes; replication_degree = degree; total_keys = keys; seed }
        ~ro ~clients ~warmup:(duration /. 4.0) ~duration
    in
    Printf.printf "transactions: %d committed, %d aborted\n"
      (Checker.committed_count r.history)
      (Checker.aborted_count r.history);
    let verdicts =
      Sss_experiments.Store.verdicts system r.history ~quiescent:r.quiescent
    in
    List.iter
      (fun (name, v) ->
        match v with
        | Sss_experiments.Store.Pass -> Printf.printf "  %-34s PASS\n" name
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
    exit (Sss_experiments.Store.exit_code verdicts)
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
  exit (Cmd.eval (Cmd.group info [ point_cmd; figure_cmd; verify_cmd ]))
