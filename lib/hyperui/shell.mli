(** An interactive (and pipe-scriptable) shell over the hyper-programming
    session: the terminal stand-in for the paper's Figure 12 user
    interface.

    Commands mirror the UI's gestures — [edit], [type], [link SPEC] (the
    .hp link-spec syntax), [cursor], [press], [browse], [row N
    value|loc], [open N], [compile], [display-class], [go], [save]/[load],
    plus store maintenance ([roots], [census], [gc], [stabilise]).  Type
    [help] in the shell for the full list. *)

val split_args : string -> string list
(** A command line's words, split on spaces (runs of spaces give no
    empty words). *)

val unescape : string -> string
(** [type] text with each backslash-n escape expanded to a newline. *)

val run : store_path:string -> input:in_channel -> echo:bool -> unit
(** Open (or create) the store, run commands from [input] until [quit] or
    end of file, then stabilise.  Prompts only when [input] is a tty. *)
