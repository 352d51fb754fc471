(* The hyper-program editor (Figure 10, top layer): a user editor built
   on the window editor API, whose links are hyper-links.

   It supports the Section 5.4 interactions: composing by typing and
   inserting links, saving to / loading from the storage form, a
   syntactic-legality check for insertions (Section 2), syntax
   highlighting, and the Compile / Display Class / Go commands via the
   dynamic compiler. *)

open Minijava
open Hyperprog

type t = {
  window : Hyperlink.t Window_editor.t;
  vm : Rt.t;
  mutable class_name : string;
  mutable last_error : string option;
  mutable stored_as : Pstore.Oid.t option; (* last storage-form instance *)
}

(* A hyper-link is broken when any store object it pins cannot be read
   (quarantined by the scrubber, or dangling). *)
let link_broken vm link =
  List.exists
    (fun oid ->
      match Pstore.Store.Session.try_get Rt.(vm.session) oid with
      | Ok _ -> false
      | Error _ -> true)
    (Hyperlink.referenced_oids link)

let create ?(class_name = "") vm =
  let window = Window_editor.create (Basic_editor.create ()) in
  (* Broken links render distinctly: [!label] instead of [label]. *)
  Window_editor.set_render_label window (fun l ->
      if link_broken vm l.Basic_editor.payload then "[!" ^ l.Basic_editor.label ^ "]"
      else "[" ^ l.Basic_editor.label ^ "]");
  { window; vm; class_name; last_error = None; stored_as = None }

let buffer ed = Window_editor.buffer ed.window
let class_name ed = ed.class_name
let last_error ed = ed.last_error

(* -- composing --------------------------------------------------------------- *)

let type_text ed s = Window_editor.insert_at_cursor ed.window s

let move_cursor ed pos = Window_editor.set_cursor ed.window pos

(* Editing form <-> editor buffer. *)
let flat ed =
  let text, links = Basic_editor.to_flat (buffer ed) in
  let flat_links =
    List.map (fun (pos, l) -> (pos, l.Basic_editor.payload, l.Basic_editor.label)) links
  in
  { Editing_form.text; flat_links }

let editing_form ed = Editing_form.of_flat ~class_name:ed.class_name (flat ed)

let load_form ed form =
  let { Editing_form.text; flat_links } = Editing_form.to_flat form in
  let links =
    List.map
      (fun (pos, payload, label) -> (pos, { Basic_editor.payload; label }))
      flat_links
  in
  let fresh = Basic_editor.of_flat (text, links) in
  (Window_editor.buffer ed.window).Basic_editor.lines <- fresh.Basic_editor.lines;
  ed.class_name <- form.Editing_form.class_name;
  Window_editor.set_cursor ed.window { Basic_editor.line = 0; col = 0 }

(* Insert a hyper-link at the cursor.  When [check] (default true) the
   insertion is first validated against the link's syntactic production;
   an illegal insertion is refused with an explanation. *)
let insert_link ?(check = true) ?label ed link =
  let label = match label with Some l -> l | None -> Hyperlink.default_label ed.vm link in
  let legal =
    if not check then Productions.Legal
    else begin
      let cursor = Window_editor.cursor ed.window in
      (* absolute position of the cursor in the flat text *)
      let abs_pos =
        let rec go i acc =
          if i >= cursor.Basic_editor.line then acc + cursor.Basic_editor.col
          else go (i + 1) (acc + String.length (Basic_editor.line_text (buffer ed) i) + 1)
        in
        go 0 0
      in
      Productions.insertion_legal ~env:(Rt.class_env ed.vm) (flat ed) ~pos:abs_pos ~link
    end
  in
  match legal with
  | Productions.Legal ->
    Window_editor.insert_link_at_cursor ed.window { Basic_editor.payload = link; label };
    ed.last_error <- None;
    Ok ()
  | Productions.Illegal reason ->
    ed.last_error <- Some reason;
    Error reason

(* Press a link button: return the hyper-link under the position so the
   UI can ask the browser to display it (Section 5.4.1). *)
let press_button ed pos =
  Option.map (fun l -> l.Basic_editor.payload) (Basic_editor.link_at (buffer ed) pos)

(* -- syntax highlighting ------------------------------------------------------- *)

let java_keywords =
  List.map fst Token.keywords

let is_word_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_'

(* Per-line highlighting: keywords, string literals, // comments.  Block
   comments spanning lines are out of scope for the face pass. *)
let highlight ed =
  let w = ed.window in
  Window_editor.clear_faces w;
  let buffer = Window_editor.buffer w in
  for n = 0 to Basic_editor.line_count buffer - 1 do
    let text = Basic_editor.line_text buffer n in
    let len = String.length text in
    let i = ref 0 in
    while !i < len do
      let c = text.[!i] in
      if c = '/' && !i + 1 < len && text.[!i + 1] = '/' then begin
        Window_editor.set_face w ~line:n ~start:!i ~len:(len - !i) Face.comment;
        i := len
      end
      else if c = '"' then begin
        let stop = ref (!i + 1) in
        while !stop < len && text.[!stop] <> '"' do
          if text.[!stop] = '\\' then incr stop;
          incr stop
        done;
        let stop = min (len - 1) !stop in
        Window_editor.set_face w ~line:n ~start:!i ~len:(stop - !i + 1) Face.string_lit;
        i := stop + 1
      end
      else if is_word_char c && (c < '0' || c > '9') then begin
        let stop = ref !i in
        while !stop < len && is_word_char text.[!stop] do
          incr stop
        done;
        let word = String.sub text !i (!stop - !i) in
        if List.mem word java_keywords then
          Window_editor.set_face w ~line:n ~start:!i ~len:(!stop - !i) Face.keyword;
        i := !stop
      end
      else incr i
    done
  done

(* -- persistence ----------------------------------------------------------------- *)

(* Save the buffer to the persistent store as a storage-form instance. *)
let save ed =
  let form = editing_form ed in
  let hp_oid = Editing_form.to_storage ed.vm form in
  ed.stored_as <- Some hp_oid;
  hp_oid

let load ed hp_oid =
  load_form ed (Editing_form.of_storage ed.vm hp_oid);
  ed.stored_as <- Some hp_oid

(* -- compile / display class / go (Section 5.4.2) ---------------------------------- *)

type compile_outcome =
  | Compiled of string list (* class names *)
  | Compile_failed of string

let compile ?mode ed =
  let hp_oid = save ed in
  match Dynamic_compiler.compile_hyper_program ?mode ed.vm hp_oid with
  | rcs ->
    ed.last_error <- None;
    Compiled (List.map (fun rc -> rc.Rt.rc_name) rcs)
  | exception Jcompiler.Compile_error e ->
    (* Reported in terms of the ORIGINAL hyper-program, via the textual
       form's source map — the improvement the paper plans in 5.4.2. *)
    let msg = Dynamic_compiler.explain_error ed.vm hp_oid e in
    ed.last_error <- Some msg;
    Compile_failed msg
  | exception Rt.Jerror { jclass; message; _ } ->
    let msg = jclass ^ ": " ^ message in
    ed.last_error <- Some msg;
    Compile_failed msg

(* The Go button: compile, then run the principal class's main method.
   By default the principal class is the first class defined. *)
let go ?mode ?(argv = []) ed =
  let hp_oid = save ed in
  match Dynamic_compiler.go ?mode ed.vm hp_oid ~argv with
  | principal ->
    ed.last_error <- None;
    Ok principal
  | exception Jcompiler.Compile_error e ->
    let msg = Dynamic_compiler.explain_error ed.vm hp_oid e in
    ed.last_error <- Some msg;
    Error msg
  | exception Rt.Jerror { jclass; message; _ } ->
    let msg = jclass ^ ": " ^ message in
    ed.last_error <- Some msg;
    Error msg

(* Render the editor contents. *)
let render ?(ansi = false) ed =
  highlight ed;
  if ansi then Window_editor.render_ansi ed.window else Window_editor.render_plain ed.window

(* -- drag and drop (Section 5.4.1, future work — implemented) ------------------ *)

(* Move a link button from one position to another within the buffer. *)
let drag_link ed ~from ~to_ =
  match Basic_editor.remove_link_at (buffer ed) from with
  | None -> Error "no link at the source position"
  | Some link ->
    (* Removing a link never changes text, so [to_] is still valid. *)
    Basic_editor.insert_link (buffer ed) to_ link;
    Ok ()
