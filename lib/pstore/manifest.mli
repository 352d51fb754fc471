(** Store layout: shard assignment hashing, file naming, the manifest
    file, and the store-level commit marker for cross-shard atomic
    stabilise.  The store has one code path for every shard count; the
    three decisions that depend on the count live here: file names
    ({!image_file}, {!wal_file}), the commit point of a compaction
    ({!commit}) and whether a commit marker gates journal replay
    ({!gated}).

    On-disk layout of an [N]-shard store at [path], [N > 1]:
    {v
      path             manifest (magic "HPJMANIF"): N, marker epoch,
                       per-shard image epochs
      path.s<k>.<e>    shard k's image at epoch e (ordinary v2 image)
      path.s<k>.<e>.wal   shard k's journal
      path.marker.<m>  commit marker m
    v}

    A one-shard store keeps the flat names: its image is [path] itself
    and its journal [Journal.path_for path], with no epoch suffix, no
    manifest file and no marker.  {!layout} sniffs the magic to tell the
    two apart. *)

type t = {
  nshards : int;
  marker_epoch : int;
      (** current marker file index; [-1] = no marker yet (a layout with
          one shard, or a legacy manifest written before every store
          journalled) *)
  epochs : int array;  (** current image epoch of each shard *)
}

(** {1 Shard assignment} *)

val shard_of_oid : count:int -> Oid.t -> int
(** Multiplicative-hash shard assignment; total over oids, stable across
    sessions (it is persisted implicitly by which image holds an oid). *)

val shard_of_key : count:int -> string -> int
(** Shard assignment for root and blob names. *)

(** {1 File naming} *)

val shard_image : string -> int -> int -> string
(** [path.s<k>.<e>]: shard [k]'s image at epoch [e] in a manifest store. *)

val shard_wal : string -> int -> int -> string
val marker_path : string -> int -> string

val image_file : count:int -> string -> int -> int -> string
(** Shard [k]'s image at epoch [e] in a [count]-shard store: {!shard_image},
    or [path] itself for one shard. *)

val wal_file : count:int -> string -> int -> int -> string
(** Its journal: {!shard_wal}, or [Journal.path_for path] for one shard. *)

(** {1 Layout rules} *)

val gated : count:int -> bool
(** Does a commit marker gate journal replay?  Only with more than one
    journal: one batch frame is already atomic, so a one-shard journal
    replays every whole batch and its batches carry no sequence number. *)

val layout : string -> t
(** The layout of the store at [path]: its manifest, or one flat shard
    ([marker_epoch = -1], epoch [0]) when [path] is not a manifest. *)

val commit : string -> t -> unit
(** The commit point of a compaction: atomically replace the manifest
    ({!Faults.replace_file}).  A one-shard store has none to
    write — its image rename already committed. *)

(** {1 Manifest I/O} *)

val load : string -> t
(** @raise Codec.Decode_error if unreadable or not a manifest. *)

val is_manifest : string -> bool
(** Does the file start with the manifest magic (vs a flat image)? *)

val cleanup_stale : string -> t -> unit
(** Best-effort deletion of shard/marker files from superseded epochs.
    Errors are ignored: stale files are unreferenced and harmless.  A
    one-shard store has no epoch files, so its directory is not read. *)

(** {1 Commit marker}

    An append-only file of checksummed records, each carrying one
    store-level stabilise sequence number.  A sequence number is
    committed iff a marker record carrying it is durable; the marker
    record is only written after every participating shard journal has
    been fsynced, which is what makes a multi-shard stabilise
    all-or-nothing under crashes. *)

module Marker : sig
  type t = Faults.log
  (** Written with {!Faults.sync_log}, {!Faults.truncate_log} and the
      rest of the log functions. *)

  val create : string -> t
  (** Truncate and write the marker header, fsynced. *)

  val append : t -> int -> unit
  (** Append a committed-sequence record.  Not durable until
      {!Faults.sync_log}. *)

  type replay = {
    committed : int;  (** last good sequence number; [0] if none *)
    valid_bytes : int;  (** end offset of the last good record *)
  }

  val read : string -> replay option
  (** Lenient scan ({!Codec.scan_frames}), stopping at the first torn
      record.  [None] if the file is missing or its header is
      unreadable. *)

  val open_for_append : string -> valid_bytes:int -> t
  (** Reopen, physically truncating any torn tail first. *)
end
