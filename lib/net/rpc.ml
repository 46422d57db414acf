open Sss_sim

exception Stalled of { system : string; phase : string; bound : string; detail : string }

let stalled ~system ~phase ~bound detail = raise (Stalled { system; phase; bound; detail })

exception Crashed of { system : string; node : int }

let crashed ~system ~node = raise (Crashed { system; node })

let () =
  Printexc.register_printer (function
    | Stalled { system; phase; bound; detail } ->
        Some (Printf.sprintf "Rpc.Stalled(%s: %s gave up after %s: %s)" system phase bound detail)
    | Crashed { system; node } ->
        Some (Printf.sprintf "Rpc.Crashed(%s: node %d lost its volatile state)" system node)
    | _ -> None)

module Pending = struct
  type 'a slot = ('a, exn) result Sim.Ivar.t

  type 'a t = { mutable next : int; table : (int, 'a slot) Hashtbl.t }

  let create () = { next = 0; table = Hashtbl.create 16 }

  let fresh t =
    t.next <- t.next + 1;
    let iv = Sim.Ivar.create () in
    Hashtbl.replace t.table t.next iv;
    (t.next, iv)

  let resolve sim t id v =
    match Hashtbl.find_opt t.table id with
    | None -> ()
    | Some iv ->
        Hashtbl.remove t.table id;
        if not (Sim.Ivar.is_filled iv) then Sim.Ivar.fill sim iv (Ok v)

  let await sim slot =
    match Sim.Ivar.read sim slot with Ok v -> v | Error e -> raise e

  let await_timeout sim slot ~timeout =
    match Sim.Ivar.read_timeout sim slot ~timeout with
    | Some (Ok v) -> Some v
    | Some (Error e) -> raise e
    | None -> None

  let poison_all sim t e =
    (* wake the waiters in request-id order: the table's bucket order must
       not leak into the trajectory *)
    let ids =
      List.sort Int.compare (Hashtbl.fold (fun id _ acc -> id :: acc) t.table [] [@order_ok])
    in
    List.iter
      (fun id ->
        match Hashtbl.find_opt t.table id with
        | None -> ()
        | Some iv ->
            Hashtbl.remove t.table id;
            if not (Sim.Ivar.is_filled iv) then Sim.Ivar.fill sim iv (Error e))
      ids

  let forget t id = Hashtbl.remove t.table id

  let outstanding t = Hashtbl.length t.table
end
