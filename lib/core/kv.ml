open Sss_data

type cluster = State.t

type handle = Client.handle

type msg = Message.payload

let create sim config = State.create sim config Server.hooks

let begin_txn = Client.begin_txn

let read = Client.read

let write = State.write

let commit = Client.commit

let abort = Client.abort

let txn_id = State.txn_id

let with_txn cluster ~node ~read_only ?(max_attempts = 5) f =
  let rec attempt n =
    if n = 0 then None
    else
      let h = Client.begin_txn cluster ~node ~read_only in
      match f h with
      | result -> if Client.commit h then Some result else attempt (n - 1)
      | exception e ->
          Client.abort h;
          raise e
  in
  attempt max_attempts

let history = State.history

let stats (t : cluster) = t.State.ext.State.stats

let set_collect_latencies (t : cluster) flag =
  t.State.ext.State.stats.State.collect_latencies <- flag

let network_stats (t : cluster) = Sss_net.Network.stats t.State.net

let wal_stats (t : cluster) =
  Array.fold_left
    (fun acc w ->
      match w with
      | None -> acc
      | Some w -> Sss_storage.Storage.add_stats acc (Sss_storage.Storage.stats w))
    Sss_storage.Storage.zero_stats t.State.wals

let version_count = State.version_count

let mem_words (t : cluster) =
  Array.fold_left
    (fun acc (n : State.node) -> Mvstore.mem_add acc (Mvstore.mem_words n.State.store))
    Mvstore.mem_zero t.State.nodes

let nlog_entries = State.nlog_entries

let gc_stats (t : cluster) =
  match t.State.ext.State.gc with
  | None -> (0, 0, 0)
  | Some g -> (g.State.refreshes, g.State.versions_dropped, g.State.entries_dropped)

let network = State.network

let message_kind = Message.kind_name

let repl = State.repl

let local_keys = State.local_keys

let store_words t = Mvstore.mem_total (mem_words t)

let store_repr (t : cluster) node = Obj.repr t.State.nodes.(node).State.store

let obs = State.obs

let transport_retries (t : cluster) = Sss_net.Reliable.retries t.State.rel

let transport_stalled (t : cluster) = Sss_net.Reliable.stalled t.State.rel

let crash_node = State.crash_node

let restart_node = State.restart_node

let quiescent (t : cluster) =
  State.residue_report t (fun (n : State.node) ->
      (* in sorted key order: the text must not depend on bucket order *)
      List.concat_map
        (fun key ->
          State.residue n
            (Printf.sprintf "entries in the snapshot-queue of key %d" key)
            (Squeue.length (Hashtbl.find n.State.squeues key)))
        (Runtime.sorted_keys n.State.squeues)
      @ State.residue n "commit-queue entries" (Stampset.length n.State.queued)
      @ State.Ac.lingering n
      @ State.residue n "transactions still hold locks" (Locks.holder_count n.State.locks)
      @ State.residue n "coordinated transactions unfinished" (Hashtbl.length n.State.coordinated)
      @ State.residue n "parked stamps" (Stampset.length n.State.parked))
