(** Fault injection for durability testing.

    All file I/O performed by {!Image} and {!Journal} goes through the
    wrappers below.  With no fault armed they are plain pass-throughs
    costing one reference read, so production pays nothing.  Tests arm a
    fault to simulate a crash mid-write: the wrapper performs the partial
    effect (some bytes land on disk, the rename never happens, ...) and
    raises {!Fault_injected}, after which the injector disarms itself so
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
          that a retry policy must ride out (or a circuit breaker must
          trip on). *)

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

(** {1 Wrapped I/O} *)

val output_string : out_channel -> string -> unit
val rename : string -> string -> unit

val fsync_channel : out_channel -> unit
(** Flush the channel and fsync its descriptor. *)

val fsync_dir : string -> unit
(** Fsync a directory, making renames within it durable. *)
