(** HTML publishing of hyper-programs (paper Section 6).

    Hyper-programs are rendered as HTML pages with the hyper-links
    represented as URLs (a [store://] scheme carrying the target), as was
    done to publish the Napier88 compiler source. *)

open Minijava

val escape : string -> string
(** HTML-escape a text fragment. *)

val link_url : Hyperlink.t -> string
(** The URL a hyper-link is rendered as.  The components (class names,
    member names, printed values) are raw data; anchors escape the whole
    URL when embedding it, so hostile names cannot break out of the
    [href] attribute. *)

val export_form : Editing_form.t -> string
(** Render an editing-form hyper-program as a full HTML page. *)

val export : Rt.t -> Pstore.Oid.t -> string
(** Render a storage-form hyper-program as a full HTML page; a link
    whose record cannot be read is named after the text. *)

val export_all : Rt.t -> dir:string -> string list
(** Write one page per live registered hyper-program plus an index into
    [dir]; returns the exported names. *)

val plain_text : Rt.t -> Pstore.Oid.t -> string
(** Plain-text printing: links become bracketed footnote indices with
    their descriptions listed after the text (an unreadable link only
    in the footnotes). *)

(** {1 The live dashboard}

    The same publishing rendered on demand over the open store (served
    read-only by the hyper-programming server): hyper-links become URLs
    into the dashboard itself and every page carries a broken-link
    census computed with the registry's salvage reads.  All
    user-controlled text — class names, labels, program text, failure
    reasons — is escaped. *)

val live_index : Rt.t -> string
(** All live registered hyper-programs with per-program link and
    broken-link counts; a program whose own record cannot be read gets
    a row saying so. *)

val live_page : Rt.t -> uid:int -> string option
(** One program's page, links pointing at [/hp/<uid>/link/<i>]; [None]
    if no live program has that uid. *)

val live_link_page : Rt.t -> uid:int -> link:int -> string
(** One link's resolution: its value, or the typed broken-link reason. *)
