(** Text rendering of browser panels (the AWT substitution): boxes with
    rows, sharing markers, location markers and open-arrows. *)

open Pstore

val browser : Ocb.t -> string
(** The four front-most panels, front first. *)

val census : Store.t -> string
