(** Faces: fonts, sizes, styles and colours (paper Section 5.1).

    The window editor attaches faces to text runs; rendering maps them to
    ANSI escape sequences (this repository's AWT substitution). *)

type colour =
  | Default
  | Black
  | Red
  | Green
  | Yellow
  | Blue
  | Magenta
  | Cyan
  | White

type t = {
  font : string;  (** symbolic family name, carried for fidelity *)
  size : int;
  bold : bool;
  italic : bool;
  underline : bool;
  foreground : colour;
  background : colour;
}

val default : t

(** Preset faces used by the hyper-program editor. *)

val keyword : t
val string_lit : t
val comment : t
val link_button : t

val equal : t -> t -> bool

val ansi : t -> string
(** ANSI escape prefix for a face; [""] for the default face. *)

val ansi_reset : string
