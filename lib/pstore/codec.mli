(** Binary encoding primitives used by the store image format and the
    MiniJava class-file format.  All multi-byte integers are little-endian;
    strings are length-prefixed. *)

type writer
type reader

exception Decode_error of string

val decode_error : ('a, Format.formatter, unit, 'b) format4 -> 'a
(** Raise {!Decode_error} with a formatted message. *)

val writer : unit -> writer
val contents : writer -> string

val reset : writer -> unit
(** Empty the writer for reuse, keeping its internal buffer — for hot
    paths that would otherwise allocate a fresh writer per item. *)

val reader : string -> reader

val prefix_reader : string -> int -> reader
(** [prefix_reader s n] reads the first [n] bytes of [s] as if they were
    all of it, without copying them.
    @raise Invalid_argument if [n] is not in [0, String.length s]. *)

val remaining : reader -> int
val at_end : reader -> bool

val put_u8 : writer -> int -> unit
val put_bool : writer -> bool -> unit
val put_i32 : writer -> int32 -> unit
val put_int : writer -> int -> unit
val put_i64 : writer -> int64 -> unit
val put_f64 : writer -> float -> unit
val put_string : writer -> string -> unit
val put_list : writer -> (writer -> 'a -> unit) -> 'a list -> unit
val put_array : writer -> (writer -> 'a -> unit) -> 'a array -> unit
val put_option : writer -> (writer -> 'a -> unit) -> 'a option -> unit

val put_bytes : writer -> string -> unit
(** Raw bytes, no length prefix. *)

val get_bytes : reader -> int -> string
(** Raw bytes, no length prefix. *)

val get_u8 : reader -> int
val get_bool : reader -> bool
val get_i32 : reader -> int32
val get_int : reader -> int
val get_i64 : reader -> int64
val get_f64 : reader -> float
val get_string : reader -> string
val get_list : reader -> (reader -> 'a) -> 'a list
val get_array : reader -> (reader -> 'a) -> 'a array
val get_option : reader -> (reader -> 'a) -> 'a option

val crc32 : string -> int32
(** CRC-32 checksum (IEEE 802.3 polynomial) of a byte string.  A
    slicing-by-8 loop over immediate [int] state: it allocates nothing
    but its result, however long the input. *)

val crc32_sub : string -> pos:int -> len:int -> int32
(** [crc32_sub s ~pos ~len] is [crc32 (String.sub s pos len)], without
    the copy.
    @raise Invalid_argument if the range is not inside [s]. *)

val contents_with_crc : writer -> string
(** {!contents} followed by the CRC-32 of those bytes as a little-endian
    [u32] ({!put_i32}), built with one copy of the writer's bytes. *)

(** {1 Checksummed frames}

    [int length][u32 crc32(payload)][payload] — the framing shared by
    per-object image records and write-ahead journal records. *)

val put_frame : writer -> string -> unit

val get_frame : reader -> string
(** Read a frame and verify its checksum.
    @raise Decode_error on truncation or checksum mismatch. *)

val checked_frame : reader -> (string, string) result
(** Like {!get_frame}, but a checksum mismatch is returned as [Error]
    with the reader advanced past the frame, so salvage loops can skip
    the corrupt frame and keep reading.
    @raise Decode_error if the frame structure itself is unreadable. *)

val trusted_frame : reader -> string
(** Read a frame without recomputing its checksum, for bytes that an
    enclosing checksum (an image's trailer) has already verified.
    @raise Decode_error on a bad length or truncation. *)

val scan_frames : string -> pos:int -> (string -> 'a) -> ('a * int) list * int * bool
(** [scan_frames data ~pos decode] decodes the frames of [data] from
    offset [pos] leniently, stopping at the first torn one (bad length,
    short payload, checksum mismatch, or a payload [decode] rejects with
    {!Decode_error}) rather than raising.  Returns each decoded payload
    with its frame's end offset, the end offset of the last good frame
    ([pos] if none), and whether a torn tail was dropped. *)
