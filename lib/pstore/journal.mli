(** The write-ahead journal behind incremental stabilisation.

    A journal extends exactly one image snapshot: its header records the
    image's checksum, and its body is a sequence of checksummed,
    length-prefixed mutation records.  [Store.stabilise] appends the
    mutations since the last stabilise and fsyncs —
    O(delta) instead of O(store) — and recovery replays the journal on top
    of the image, truncating at the first torn record.

    A journal whose header names a different image than the one on disk is
    stale (the store was compacted and the crash landed between the image
    rename and the journal reset); recovery discards it, which is safe
    because the newer image already contains every journalled effect. *)

type op =
  | Set_root of string * Pvalue.t
  | Remove_root of string
  | Alloc of Oid.t * Heap.entry
  | Set_field of Oid.t * int * Pvalue.t
  | Set_elem of Oid.t * int * Pvalue.t
  | Set_blob of string * string
  | Remove_blob of string

type t
(** An open journal writer. *)

val path_for : string -> string
(** The journal path paired with an image path ([<image>.wal]). *)

val header_size : int
(** Byte size of the journal header (magic + base checksum): the
    truncation floor when no record survives recovery. *)

val create : obs:Obs.t -> string -> base_crc:int32 -> t
(** Truncate [path] and write a fresh header naming the base image,
    fsynced.  [obs] has its [Journal_append] counter bumped once per
    record appended. *)

val append_batch : ?seq:int -> t -> op list -> unit
(** Group commit: append the whole op list as ONE framed batch record
    (a single op keeps the plain per-op framing, byte-compatible with
    journals written before batching).  The frame checksum covers every
    op, so a crash mid-write tears the batch as a unit and recovery lands
    on the pre-batch state — never on a prefix of the delta.  {!depth}
    still advances by the number of ops.  Not durable until {!sync}.

    [seq], used by stores whose commit marker gates replay, stamps the record with the store-level
    stabilise sequence number (always a tag-8 frame, even for one op);
    recovery replays a seq-stamped batch only if the store commit marker
    shows that sequence number as committed. *)

val sync : t -> unit
(** Fsync — the stabilise barrier. *)

val depth : t -> int
(** Records in the journal (replayed + appended since open). *)

val position : t -> int
(** Current end-of-journal byte offset: a savepoint for {!truncate_to}. *)

val truncate_to : t -> pos:int -> depth:int -> unit
(** Discard everything after a savepoint (transaction abort). *)

val log : t -> Faults.log
(** The underlying log, for {!Faults.close_log} and {!Faults.crash_log}. *)

(** {1 Recovery} *)

(** One physical record, preserving batch boundaries and the optional
    stabilise sequence number (sharded recovery filters on it). *)
type batch = {
  b_seq : int option;
  b_ops : op list;
  b_end : int;  (** end byte offset of the record *)
}

type replay = {
  base_crc : int32;  (** checksum of the image this journal extends *)
  batches : batch list;  (** good records in order *)
  torn : bool;  (** a torn or corrupt tail was dropped *)
  valid_bytes : int;  (** end offset of the last good record *)
}

val read : string -> replay option
(** Parse a journal leniently ({!Codec.scan_frames}): stop at the first
    torn record (bad length, short payload, checksum mismatch,
    undecodable body) rather than raising.  [None] if the file is
    missing or its header is unreadable. *)

val open_for_append : obs:Obs.t -> string -> valid_bytes:int -> depth:int -> t
(** Reopen an existing journal for appending, physically truncating any
    torn tail beyond [valid_bytes] first. *)

val copy_entry : Heap.entry -> Heap.entry
(** Deep-copy an entry's mutable parts.  [Alloc] ops must carry a copy:
    the live entry keeps mutating after the record is made. *)

val apply : op -> Heap.t -> Roots.t -> (string, string) Hashtbl.t -> unit
(** Replay one record.  [Alloc] inserts a fresh copy of the entry
    (replacing any live entry at that oid — duplicate replay after a
    failed-then-retried append must converge) and advances the heap's
    oid counter past the allocated oid. *)
