(* Store-only microbench: the arena store replaying synthetic traffic at a
   100-node clock size.  Three sections isolate where the bytes go:

   - genesis: K keys initialised, nothing written — the shape that
     dominates 1M-key open-loop clusters (the implicit genesis pays an
     index entry and a byte per key).
   - affine: replica-affine write sets of 4 keys per commit, per-node
     clocks that advance mostly in their own entry — refcount-shared head
     cells and sparse delta demotion both engage.
   - scattered: uniform single-key commits under a globally racing clock,
     the no-compression worst case — demotion's size cap keeps every
     clock at full-cell cost instead of inflating into wide deltas.

   Each section reports GC-measured live words per version (plus the
   store's own mem_words model, which should agree), and the churn
   sections report install and select throughput with allocation per
   deep select (the store decodes into a scratch clock — 0 words).
   Chains are trimmed to their [keep] newest versions through the
   watermark collector: a key's clocks only grow in both replays, so the
   clock of its [keep]-th newest version, used as the watermark, keeps
   exactly [keep] versions.  EXPERIMENTS.md records the pre-arena
   boxed-list layout's numbers for comparison.

     store_probe [nodes] [keys] [installs]      (default 100 10000 200000)
*)

open Sss_data

let live_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

let () =
  let arg i d = if Array.length Sys.argv > i then int_of_string Sys.argv.(i) else d in
  let nodes = arg 1 100 and keys = arg 2 10_000 and installs = arg 3 200_000 in
  let keep = 5 and selects = 200_000 and ws = 4 in
  let st = ref 0x1e3779b97f4a7c15 in
  let rand m =
    let x = !st in
    let x = x lxor (x lsl 13) in
    let x = x lxor (x lsr 7) in
    let x = x lxor (x lsl 17) in
    st := x;
    (x land max_int) mod m
  in
  Printf.printf "store probe: %d nodes, %d keys, %d installs, write set %d, chains kept <= %d\n"
    nodes keys installs ws keep;

  (* pre-generated traffic, identical for both stores *)
  let affine_nodes = Array.init (installs / ws) (fun _ -> rand nodes) in
  let scattered = Array.init installs (fun _ -> (rand keys, rand nodes)) in
  let sel = Array.init selects (fun _ -> rand keys) in
  let kpn = keys / nodes in

  (* replay the affine schedule: node-affine write sets of [ws] consecutive
     keys, per-node clocks advancing in their own entry, a full merge with
     the freshest commit knowledge every 64th commit *)
  let replay_affine ~install ~truncate =
    let own = Array.init nodes (fun _ -> Array.make nodes 0) in
    let latest = Array.make nodes 0 in
    let commits = Array.make nodes 0 in
    let cursor = Array.make nodes 0 in
    Array.iter
      (fun n ->
        let c = commits.(n) + 1 in
        commits.(n) <- c;
        own.(n).(n) <- own.(n).(n) + 1;
        if c land 63 = 0 then
          for i = 0 to nodes - 1 do
            if latest.(i) > own.(n).(i) then own.(n).(i) <- latest.(i)
          done;
        latest.(n) <- own.(n).(n);
        let vc = Array.copy own.(n) in
        let writer = { Ids.node = n; local = c } in
        for j = 0 to ws - 1 do
          let k = (n * kpn) + ((cursor.(n) + j) mod kpn) in
          install k ~value:(Printf.sprintf "v%d:%d" c k) ~vc ~writer;
          truncate k
        done;
        cursor.(n) <- (cursor.(n) + ws) mod kpn)
      affine_nodes
  in
  (* replay the scattered schedule: uniform keys, one racing global clock *)
  let replay_scattered ~install ~truncate =
    let clk = Array.make nodes 0 in
    let locals = Array.make nodes 0 in
    Array.iter
      (fun (k, n) ->
        clk.(n) <- clk.(n) + 1;
        locals.(n) <- locals.(n) + 1;
        install k
          ~value:(Printf.sprintf "v%d:%d" locals.(n) k)
          ~vc:(Array.copy clk)
          ~writer:{ Ids.node = n; local = locals.(n) };
        truncate k)
      scattered
  in

  let shallow vc = ignore (Sys.opaque_identity vc); false in
  let deep vc = ignore (Sys.opaque_identity vc); true in
  let churn name replay =
    let base = live_words () in
    let s = Mvstore.create ~nodes in
    Mvstore.reserve s keys;
    for k = 0 to keys - 1 do
      Mvstore.init_key s k ~value:(Ids.boot_value k)
    done;
    (* each key's last [keep] installed clocks, oldest at [installed mod
       keep]; the replays never mutate a clock once installed *)
    let recent = Array.make (keys * keep) [||] and installed = Array.make keys 0 in
    let t0 = (Unix.gettimeofday () [@wallclock_ok]) in
    replay
      ~install:(fun k ~value ~vc ~writer ->
        recent.((k * keep) + (installed.(k) mod keep)) <- vc;
        installed.(k) <- installed.(k) + 1;
        Mvstore.install s k ~value ~vc:(Vclock.unsafe_of_array vc [@owned]) ~writer)
      ~truncate:(fun k ->
        if installed.(k) >= keep then
          let oldest = recent.((k * keep) + (installed.(k) mod keep)) in
          let watermark = (Vclock.unsafe_of_array oldest [@owned]) in
          ignore (Mvstore.truncate_covered s k ~watermark : int));
    let t1 = (Unix.gettimeofday () [@wallclock_ok]) in
    (* the harness's clock references must not count as store words *)
    Array.fill recent 0 (Array.length recent) [||];
    let al = live_words () - base in
    let av = Mvstore.version_count s in
    let mem = Mvstore.mem_words s in
    let w0 = Gc.allocated_bytes () in
    let t2 = (Unix.gettimeofday () [@wallclock_ok]) in
    let sink = ref 0 in
    Array.iter
      (fun k -> sink := !sink + String.length (Mvstore.slot_value s (Mvstore.select s k ~skip:deep)))
      sel;
    let t3 = (Unix.gettimeofday () [@wallclock_ok]) in
    let w1 = Gc.allocated_bytes () in
    let t4 = (Unix.gettimeofday () [@wallclock_ok]) in
    Array.iter
      (fun k -> sink := !sink + String.length (Mvstore.slot_value s (Mvstore.select s k ~skip:shallow)))
      sel;
    let t5 = (Unix.gettimeofday () [@wallclock_ok]) in
    Printf.printf "%s:\n" name;
    Printf.printf "  live words/version   %.2f  (%d versions, %d words; model %.2f)\n"
      (float_of_int al /. float_of_int av) av al (Mvstore.words_per_version mem);
    Printf.printf "  installs/sec         %.0f\n" (float_of_int installs /. (t1 -. t0));
    Printf.printf "  deep selects/sec     %.0f  (%.2f alloc words/select), head selects/sec %.0f\n"
      (float_of_int selects /. (t3 -. t2))
      ((w1 -. w0) /. float_of_int (Sys.word_size / 8) /. float_of_int selects)
      (float_of_int selects /. (t5 -. t4));
    ignore !sink
  in

  (* -- genesis-only footprint -- *)
  let base = live_words () in
  let s = Mvstore.create ~nodes in
  Mvstore.reserve s keys;
  for k = 0 to keys - 1 do
    Mvstore.init_key s k ~value:(Ids.boot_value k)
  done;
  let al = live_words () - base in
  let mem = Mvstore.mem_words s in
  Printf.printf "genesis only: %.2f words/version (model %.2f)\n"
    (float_of_int al /. float_of_int keys)
    (Mvstore.words_per_version mem);
  ignore (Sys.opaque_identity s);

  churn "affine write sets" replay_affine;
  churn "scattered" replay_scattered
