(** Fault injection for durability testing, and the store's file I/O.

    Every file the store writes, replaces, truncates or removes goes
    through the functions below: {!replace_file} for images and the
    manifest, the append-only log functions for journals and commit
    markers, {!remove} for stale epoch files and {!rename} for the
    promotion of a complete temp image.  With no fault armed they are
    plain file operations costing one reference read, so production
    pays nothing.  Tests arm a fault to simulate a crash mid-write: the
    write, rename or fsync underneath performs the partial effect (some
    bytes land on disk, the rename never happens, ...) and raises
    {!Fault_injected}, after which the injector disarms itself so
    recovery I/O runs clean.  The injector is process-wide state for a
    single thread. *)

exception Fault_injected of string

type fault =
  | Fail_after_bytes of int
      (** Write through normally until [n] bytes have been written while
          armed, then stop mid-write and raise. *)
  | Short_write of int
      (** The next write persists only its first [n] bytes, then raises. *)
  | Rename_fails  (** The next rename raises, leaving the source in place. *)
  | Fsync_fails  (** The next fsync raises (data may still be buffered). *)
  | Bit_flip of int
      (** Silently corrupt one bit at byte offset [n] of the armed write
          stream; the write "succeeds".  Models media corruption, which
          checksums must detect. *)
  | Kill_after_bytes of int
      (** Write through normally until [n] bytes have been written while
          armed, flush the torn prefix to the OS, then SIGKILL the whole
          process.  This is the macro harness's crash injector: unlike
          {!Fail_after_bytes} nothing gets to handle the failure — the
          process dies exactly as a power cut would leave it, and only a
          fresh process can observe what recovery makes of the debris.
          [bin/hpjava] arms it from the [HPJAVA_KILL_AT_BYTE] environment
          variable. *)
  | Intr_storm of int
      (** The next [n] wrapped I/O calls raise [Unix_error (EINTR, ...)]
          without performing the operation, then the injector disarms.
          Not one-shot: a storm models a burst of interrupted syscalls
          that a retried stabilise must ride out (or a circuit breaker
          must trip on). *)

val arm : ?shard:int -> fault -> unit
(** Arm a fault.  Faults are one-shot (except {!Intr_storm}): firing
    disarms.  [?shard] targets the fault at one fault domain: it fires
    only on I/O performed inside the matching {!with_shard_scope}, and
    its byte budget counts only that shard's writes — I/O from other
    shards passes through untouched. *)

val disarm : unit -> unit
val armed : unit -> fault option

val with_shard_scope : int -> (unit -> 'a) -> 'a
(** Tag all wrapped I/O performed by [f] as belonging to shard [k].  The
    sharded store wraps each shard's image, journal and marker I/O in
    its scope, so a [?shard]-targeted fault hits exactly one fault
    domain.  Scopes nest (innermost wins). *)

val fired : unit -> int
(** Total faults fired since program start. *)

val with_fault : fault -> (unit -> 'a) -> ('a, exn) result
(** Arm, run, disarm (even on exception).  The raised exception — usually
    {!Fault_injected} — is returned as [Error]. *)

val corrupt_entry : Heap.t -> Oid.t -> unit
(** Flip one bit of an object's in-memory state behind the store API (a
    stray pointer / bad DIMM stand-in).  Counts as a fired fault; the
    scrubber's checksum pass is what must catch it.
    @raise Heap.Heap_error if the oid is not live. *)

(** {1 Whole files} *)

val read_file : string -> string
(** The whole file.  @raise Sys_error if it cannot be read. *)

val replace_file : string -> string -> unit
(** Crash-atomic replace: write [path.tmp], fsync it, rename it over
    [path], then fsync the directory so the rename itself is durable.
    A crash leaves either the old file or the new one at [path]. *)

val rename : string -> string -> unit

val remove : string -> unit
(** @raise Sys_error if the file cannot be removed. *)

(** {1 Append-only logs}

    A header, then checksummed {!Codec.put_frame} records: the layout
    of the write-ahead journal and the commit marker.  {!Codec.scan_frames}
    reads one back. *)

type log
(** An open log writer, positioned at its end. *)

val create_log : string -> header:string -> log
(** Truncate [path], write [header] and fsync it. *)

val reopen_log : string -> valid_bytes:int -> log
(** Reopen an existing log for appending, physically truncating it to
    [valid_bytes] first (dropping a torn tail). *)

val append_frame : log -> string -> unit
(** Append one frame around the payload, as a single write.  Not
    durable until {!sync_log}. *)

val sync_log : log -> unit
(** Flush and fsync. *)

val log_position : log -> int
(** The end offset, buffered bytes included: a savepoint for
    {!truncate_log}. *)

val truncate_log : log -> int -> unit
(** Discard everything after a savepoint. *)

val close_log : log -> unit
(** Flush and close, ignoring errors. *)

val crash_log : log -> unit
(** Test support: close the descriptor {e without} flushing, losing any
    buffered bytes, exactly as a process crash does. *)
