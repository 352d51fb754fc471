(* Transactions over the live system (paper Section 7): "in a
   transactional system it is possible to do this [evolution] in a
   separate transaction while the system is live".

   A transaction runs its body against a FRESH VM over the shared store
   (the transaction's private execution state, as in PJama's transaction
   shells).  On success the store keeps the transaction's effects and the
   transaction's VM becomes the current one; on abort the store is
   restored to its pre-transaction image and a fresh VM is booted from
   the restored state, so classes, data and hyper-programs all revert
   together.

   The commit/abort machinery itself lives in the store layer: a
   transaction is [Store.with_rollback] (whole-store rollback on the
   default session) followed, on success, by the commit barrier — a
   stabilise of a backed store — with the VM lifecycle on top. *)

open Pstore
open Minijava

type 'a outcome =
  | Committed of 'a * Rt.t
  | Aborted of exn * Rt.t

(* Boot a VM for the store's current state, replacing any pins from
   previous VMs (their execution state is gone). *)
let fresh_vm store =
  Store.clear_pins store;
  let vm = Boot.vm_for store in
  Dynamic_compiler.install vm;
  vm

let transact store (body : Rt.t -> 'a) : 'a outcome =
  Obs.span (Store.obs store) Obs.Transaction (fun () ->
      match
        Store.with_rollback store (fun () ->
            let vm = fresh_vm store in
            let value = body vm in
            (value, vm))
      with
      | Ok (value, vm) ->
        if Store.backing store <> None then Store.stabilise store;
        Committed (value, vm)
      | Error e ->
        (* The store is back to its pre-transaction image; discard the
           transaction's VM and boot one over the restored state. *)
        Aborted (e, fresh_vm store))

(* Schema evolution inside a transaction: the paper's live-evolution
   scenario.  If recompilation or the converter fails, every store
   effect — the new class file, the archived version, the reconstructed
   instances — is rolled back. *)
let evolve ?converter ?mode store ~class_name ~new_source () =
  transact store (fun vm ->
      Evolution.evolve ?converter ?mode vm ~class_name ~new_source ())
