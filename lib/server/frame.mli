(** Wire framing: every message travels as
    [magic "hpw1"][u32 BE body length][u32 BE CRC32(body)][body].

    The magic makes protocol sniffing deterministic (an HTTP dashboard
    request never starts with it); the CRC (the store's own
    {!Pstore.Codec.crc32}) rejects corrupted frames before any field is
    decoded.  Framing has no resynchronisation point: after a framing
    violation the connection answers one typed error frame and dies. *)

val magic : string
val header_len : int

val max_body : int
(** Hard body-size bound (1 MiB): a hostile length field can never make
    the server allocate unboundedly. *)

type error =
  | Bad_magic
  | Too_large of int
  | Bad_crc

val describe_error : error -> string

val put_u32 : Buffer.t -> int -> unit
(** Append a u32 big-endian (shared with the protocol operand codec). *)

val get_u32 : string -> int -> int
(** Read a u32 big-endian at an offset (bounds are the caller's job). *)

val encode : string -> string
(** Wrap a body into one frame. *)

(** Incremental extraction over accumulated input: one verified body and
    the bytes it consumed, a request for more input, or an
    unrecoverable framing violation. *)
type extract =
  | Got of string * int
  | Need of int
  | Bad of error

val extract : string -> extract

(** {1 Blocking I/O — the client's path and test probes} *)

exception Closed
(** The peer hung up (EOF / EPIPE / ECONNRESET). *)

val really_write : Unix.file_descr -> string -> unit
val write_frame : Unix.file_descr -> string -> unit

val read_frame : Unix.file_descr -> string
(** One whole frame off a blocking socket.
    @raise Closed on EOF.
    @raise Stdlib.Failure on a framing violation. *)
