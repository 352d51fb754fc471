(** The online scrubber: incremental, budgeted verification of per-object
    checksums and reference health.

    Checksums are trust-on-first-scan: mutations invalidate an object's
    recorded CRC, the scrubber re-primes it on its next visit, and a
    mismatch on a {e still-recorded} CRC means the object changed behind
    the store's back — memory corruption — so the object is quarantined.
    Dangling strong (and weak) reference targets are quarantined too, so
    reads of the hole get a typed error instead of a crash. *)

type state

type report = {
  scanned : int;  (** objects visited by this step *)
  verified : int;  (** recorded CRCs that matched *)
  primed : int;  (** CRCs recorded for the first time (or re-recorded) *)
  newly_quarantined : (Oid.t * string) list;
  pass_complete : bool;  (** this step drained the current pass *)
}

val create : unit -> state

val step :
  state ->
  heap:Heap.t ->
  crcs:int32 Oid.Table.t ->
  quarantine:Quarantine.t ->
  reseed:(unit -> Oid.t list) ->
  foreign:(Oid.t -> bool) ->
  budget:int ->
  report
(** Scan at most [budget] objects, resuming where the previous step
    stopped; when the queue is empty a fresh pass is started from the
    oids [reseed] lists (the store lists each shard's own oids, in
    order).

    [foreign] marks oids owned by another shard: a dangling reference
    whose target is foreign is only {e reported} in [newly_quarantined]
    (never written into this shard's [quarantine]/[crcs], since an oid
    is quarantined only in its own shard); the store applies those
    quarantines on the owning shard after the step.
    @raise Invalid_argument if [budget <= 0]. *)

val passes : state -> int
(** Completed full passes. *)

val pending : state -> int
(** Oids left in the current pass. *)

val merge : state list -> state
(** The progress of several scrubbers (one per shard) as one: queued
    oids and lifetime counts are summed, and {!passes} is the smallest
    pass count among them.  For reporting only: stepping the result
    advances none of them.  The list must not be empty. *)

val pp_progress : Format.formatter -> state -> unit
