(** Transactions over the live system (paper Section 7).

    A transaction runs its body against a fresh VM over the shared store.
    On success the store keeps the effects and the transaction's VM
    becomes the current one; on abort the store is restored to its
    pre-transaction image — classes, data and hyper-programs revert
    together — and a fresh VM is booted from the restored state.

    There is exactly one commit/abort notion in the system, and it lives
    in the store layer: {!transact} is [Store.with_rollback]
    (whole-store rollback), then the commit barrier on success (a
    stabilise of a backed store), plus the VM lifecycle.  The
    snapshot-isolated multi-client variant is [Store.open_session] /
    [Store.Session.commit]; this module is the single-owner form on the
    default session, and — like every default-session write — it
    refuses to run while snapshot sessions are open. *)

open Pstore
open Minijava

type 'a outcome =
  | Committed of 'a * Rt.t  (** the result and the VM to continue with *)
  | Aborted of exn * Rt.t  (** the failure and a VM over the restored store *)

val fresh_vm : Store.t -> Rt.t
(** Boot a VM for the store's current state, replacing earlier VMs' pins
    and installing the hyper-programming runtime. *)

val transact : Store.t -> (Rt.t -> 'a) -> 'a outcome
(** Run the body under [Store.with_rollback]: on a backed store a
    successful transaction ends with the commit barrier — the delta is
    fsynced to the write-ahead journal, so commits survive a crash
    without a full snapshot.  An abort after a body that stabilised
    forces one full compaction, so the store reopens to its
    pre-transaction state.
    @raise Invalid_argument (from the store) while snapshot sessions are
    open. *)

val evolve :
  ?converter:string ->
  ?mode:Dynamic_compiler.mode ->
  Store.t ->
  class_name:string ->
  new_source:string ->
  unit ->
  Evolution.result outcome
(** The paper's live-evolution scenario: schema evolution in a separate
    transaction; a failing recompilation or converter rolls back every
    store effect. *)
