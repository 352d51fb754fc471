(** Text rendering of browser panels (the AWT substitution): boxes with
    rows, sharing markers, location markers and open-arrows. *)

open Pstore

val browser : ?max_panels:int -> Ocb.t -> string
val census : Store.t -> string
