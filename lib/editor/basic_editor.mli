(** The basic editor (paper Figure 10, bottom layer): stores and
    manipulates text with embedded links.

    Generic in the link payload so the layer is independently replaceable,
    as the paper's layering intends; the hyper-program editor instantiates
    it with {!Hyperprog.Hyperlink.t}.

    Invariants: there is always at least one line; each line's links are
    sorted by offset; offsets lie in [0 .. length line].  A link sits
    between characters; editing shifts link offsets accordingly. *)

exception Bad_position of string

type 'a link = {
  payload : 'a;
  label : string;
}

type 'a line = {
  mutable text : string;
  mutable links : (int * 'a link) list;  (** sorted by offset *)
}

type pos = {
  line : int;
  col : int;
}

val pos_compare : pos -> pos -> int

type 'a t = { mutable lines : 'a line list }

type 'a clipboard

val create : unit -> 'a t
val lines : 'a t -> (string * (int * 'a link) list) list
val line_count : 'a t -> int
val line_text : 'a t -> int -> string
val line_links : 'a t -> int -> (int * 'a link) list
val total_links : 'a t -> int

val insert_text : 'a t -> pos -> string -> pos
(** Insert text (possibly containing newlines); returns the position just
    after the inserted text.  Links at or after the insertion point shift.
    @raise Bad_position on an invalid position. *)

val insert_link : 'a t -> pos -> 'a link -> unit

val delete_range : 'a t -> pos -> pos -> unit
(** Delete [from, to); links strictly inside the range are removed, links
    at the boundaries survive. *)

val remove_link_at : 'a t -> pos -> 'a link option
(** Remove and return the first link at exactly this position. *)

val link_at : 'a t -> pos -> 'a link option

val cut : 'a t -> pos -> pos -> 'a clipboard
val paste : 'a t -> pos -> 'a clipboard -> pos
(** Clipboard contents carry both text and links. *)

val to_flat : 'a t -> string * (int * 'a link) list
(** The buffer as one newline-joined string with absolute link offsets. *)

val of_flat : string * (int * 'a link) list -> 'a t
