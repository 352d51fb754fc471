(** Per-shard health tracking: the fault-domain state machine.

    Each shard of a sharded store carries one tracker.  A run of
    consecutive failed attempts at the shard's I/O (the circuit
    breaker) or a
    salvage-heavy image load demote a shard to [Degraded]; an image that
    cannot be read at open marks it [Offline].  A shard that is not
    [Healthy] is read-only — reads serve from memory, writes raise the
    typed {!Failure.Shard_degraded} — until [Store.repair] promotes it
    back. *)

type state =
  | Healthy
  | Degraded of string  (** read-only; in-memory state intact *)
  | Offline of string  (** read-only; durable state was unreadable at open *)

type t

val create : unit -> t
(** A fresh tracker, [Healthy]. *)

val state : t -> state
val healthy : t -> bool

val state_name : state -> string
(** ["healthy"], ["degraded"] or ["offline"] (no reason). *)

val describe : state -> string
(** One-line rendering including the reason. *)

val degrade : t -> string -> unit
(** [Healthy -> Degraded reason]; no-op on an already-demoted shard (an
    offline shard never regresses to merely degraded). *)

val offline : t -> string -> unit
(** [Healthy/Degraded -> Offline reason]. *)

val promote : t -> unit
(** Back to [Healthy]; resets the consecutive-failure count and counts a
    repair if the shard was demoted. *)

(** {1 Failure accounting} *)

val note_failure : t -> unit
(** One failed attempt: shard I/O that raised a transient error. *)

val note_ok : t -> unit
(** Successful shard I/O: resets the consecutive-failure count. *)

val note_degraded_read : t -> unit
val note_refused_write : t -> unit

val failures : t -> int
(** Consecutive failed attempts since the last success. *)

val trips : t -> int
(** Demotions (circuit-breaker trips + open-time demotions) so far. *)

val degraded_reads : t -> int
val refused_writes : t -> int
val repairs : t -> int
