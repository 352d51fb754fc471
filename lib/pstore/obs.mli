(** Store observability: monotonic operation counters, latency
    histograms, and a bounded in-memory trace ring.

    Every store (and the registry / dynamic-compiler layers above it)
    carries an [Obs.t].  Counters are always on — a single array
    increment per operation, cheap enough for the hottest read path.
    Latency recording and the trace ring are gated by {!enabled}
    (tracing): when tracing is off, {!span} costs exactly one counter
    bump and no clock read, so disabled overhead is negligible.

    The close/crash protocol: {!flush} (called by [Store.close]) seals a
    final counter {!snapshot} and empties the ring; {!drop} (called by
    [Store.crash]) discards the ring without snapshotting, exactly as a
    process crash would.  A reopened store builds a fresh [Obs.t], so
    metrics always start clean. *)

(** One counter / histogram / trace class per store operation kind. *)
type op =
  | Get  (** object reads: get, find, field, elem, class_of, ... *)
  | Set  (** mutations: set_field, set_elem, roots, blobs *)
  | Alloc
  | Root_lookup  (** named-root reads *)
  | Stabilise
  | Journal_append  (** write-ahead journal records appended *)
  | Compaction
  | Image_save
  | Image_load
  | Scrub_step
  | Retry  (** stabilise re-runs after a transient failure *)
  | Quarantine_hit  (** reads refused because the target is quarantined *)
  | Gc
  | Get_link  (** registry link retrievals *)
  | Compile  (** dynamic-compiler invocations *)
  | Transaction
  | Group_commit  (** multi-op journal deltas coalesced into one batch record *)
  | Repair  (** shard repairs (promotions back to healthy) *)
  | Degraded_op
      (** operations touched by a demoted shard: writes refused with
          [Failure.Shard_degraded] plus reads served degraded *)
  | Session_commit  (** MVCC session commits replayed through the journal *)
  | Conflict
      (** session commits refused by first-committer-wins detection
          ([Failure.Commit_conflict] raised) *)
  | Net_request  (** wire-protocol requests dispatched by the server *)
  | Net_error
      (** wire-protocol requests answered with a typed error frame
          (malformed frames, auth refusals, failed operations) *)

val all_ops : op list
val op_name : op -> string

(** A structured trace event (one per {!span} while tracing is on). *)
type event = {
  seq : int;  (** monotonic event number *)
  ev_op : op;
  label : string;
  oid : Oid.t option;
  bytes : int;
  duration_ns : float;
}

val pp_event : Format.formatter -> event -> unit

(** Latency summary of one operation class (tracing-on spans only). *)
type latency = {
  timed : int;  (** spans timed since creation/reset *)
  p50_ns : float;
  p99_ns : float;
  max_ns : float;
}

(** Final counters sealed by {!flush} (the [Store.close] path). *)
type snapshot = {
  at_total : int;  (** total operation count when sealed *)
  final_counts : (op * int) list;  (** nonzero counters, in [all_ops] order *)
}

type t

val default_ring_capacity : int
(** 256 events. *)

val create : ?ring_capacity:int -> unit -> t
(** [ring_capacity] (default {!default_ring_capacity}) bounds the trace
    ring; [0] disables event capture while keeping latency histograms. *)

(** {1 Tracing switch} *)

val enabled : t -> bool
val set_enabled : t -> bool -> unit

(** {1 Recording} *)

val incr : t -> op -> unit
(** A store has one [Obs.t] for all its shards: each shard's image
    loads and saves, journal appends and I/O retries count here, and
    with tracing on the image loads and saves also record spans in this
    ring. *)

val record : t -> op -> ?oid:Oid.t -> ?bytes:int -> ?label:string -> float -> unit
(** Record a duration (ns) into the op's histogram and the trace ring.
    No-op while tracing is disabled.  Does {e not} bump the counter. *)

val span : t -> op -> ?oid:Oid.t -> ?bytes:int -> ?label:string -> (unit -> 'a) -> 'a
(** Count one operation and run the thunk.  With tracing enabled the
    duration is also timed on the monotonic clock and recorded (even
    when the thunk raises);
    disabled, this is one counter increment — no clock, no allocation
    beyond the closure. *)

(** {1 Reading} *)

val count : t -> op -> int
val counts : t -> (op * int) list
(** Nonzero counters, in [all_ops] order. *)

val total : t -> int
val latency : t -> op -> latency option
(** [None] until at least one span of this class was timed. *)

val events : t -> event list
(** Ring contents, oldest first (at most the ring's capacity). *)

val clear_events : t -> unit

(** {1 Lifecycle} *)

val reset : t -> unit
(** Zero counters and histograms, clear the ring, forget any snapshot.
    The tracing switch is kept. *)

val flush : t -> unit
(** Seal a final counter {!snapshot}, clear the ring, and stop tracing:
    the orderly [Store.close] path.  Idempotent. *)

val drop : t -> unit
(** Clear the ring and stop tracing {e without} snapshotting — the
    [Store.crash] path: in-flight trace state is lost, as it would be. *)

val final_snapshot : t -> snapshot option
(** The counters sealed by the last {!flush}, if any. *)
