(** Stabilisation: whole-store snapshots.

    The heap, named roots, blob table and quarantine set are serialised
    into a single image and written atomically.  Oids are preserved, so
    hyper-links (which capture oids) survive a close/reopen cycle.

    Format v2 checksums every object individually ({!Codec.put_frame}
    framing, shared with the write-ahead journal), so a corrupt image can
    be {e salvaged}: objects whose frames fail their checksum are
    quarantined and everything else loads. *)

exception Image_error of string

type contents = {
  heap : Heap.t;
  roots : Roots.t;
  blobs : (string, string) Hashtbl.t;
      (** named byte strings for non-object state, e.g. compiled class files *)
  quarantine : Quarantine.t;
      (** oids whose objects are known-corrupt, persisted across reopen *)
}

val encode : contents -> string
(** Serialise to bytes (deterministic: entries sorted by oid). *)

val decode : string -> contents
(** Decode an image.  The whole-image checksum is checked first; when it
    matches, entry frames are read without recomputing their own
    checksums.  If the whole-image checksum fails, a salvage pass
    loads every entry whose own frame still verifies and quarantines the
    corrupt ones; salvage is accepted only when at least one corrupt
    entry frame is found and the tail section verifies.
    @raise Image_error on bad magic, truncation, or unsalvageable
    corruption.
    @raise Codec.Decode_error on malformed payloads in a checksum-clean
    image. *)

val encode_entry : Codec.writer -> Heap.entry -> unit
(** The per-object wire format — a checksummed frame — shared with the
    write-ahead journal. *)

val decode_entry : Codec.reader -> Heap.entry
(** @raise Codec.Decode_error on truncation or checksum mismatch. *)

val entry_crc : Heap.entry -> int32
(** The per-object checksum: CRC-32 of the entry's encoded payload.  This
    is what the image frames store and the online scrubber recomputes. *)

val save : obs:Obs.t -> string -> contents -> int32
(** Crash-atomic write ({!Faults.replace_file}).  Returns the image's
    checksum, which names this snapshot for journal pairing.  The write
    is recorded as an [Image_save] span with the encoded byte count. *)

type load_report = {
  lr_contents : contents;
  lr_crc : int32;
  lr_salvaged : int;
      (** entries the decoder quarantined around during this load (0 on
          a checksum-clean image).  The sharded open uses the count to
          demote a shard whose image needed salvage-heavy recovery. *)
}

val load_report : obs:Obs.t -> string -> load_report
(** Read an image: its contents, its checksum and the salvage count,
    recorded as an [Image_load] span. *)

val slice :
  keep_oid:(Oid.t -> bool) -> keep_key:(string -> bool) -> contents -> contents
(** One shard's view of whole-store contents: heap entries and
    quarantined oids selected by [keep_oid], roots and blobs by
    [keep_key].  Entries are shared by reference (the slice is a
    transient save input); [next_oid] carries the global counter. *)
