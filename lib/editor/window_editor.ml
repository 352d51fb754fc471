(* The window editor (Figure 10, middle layer): an API for the graphical
   display and editing of a basic editor's contents.  It adds faces
   (fonts, sizes, styles, colours), a viewport, a cursor, and rendering —
   to styled segments for programmatic use and to ANSI text for display
   (the AWT substitution). *)

type 'a t = {
  buffer : 'a Basic_editor.t;
  mutable cursor : Basic_editor.pos;
  mutable selection : (Basic_editor.pos * Basic_editor.pos) option;
  mutable top_line : int; (* first visible line *)
  mutable height : int;
  mutable width : int;
  mutable face_runs : (int * int * int * Face.t) list; (* line, start, len, face *)
  mutable link_face : Face.t;
  mutable render_label : 'a Basic_editor.link -> string;
}

type segment = {
  seg_text : string;
  seg_face : Face.t;
  seg_link : bool;
}

let create ?(width = 80) ?(height = 24) buffer =
  {
    buffer;
    cursor = { Basic_editor.line = 0; col = 0 };
    selection = None;
    top_line = 0;
    height;
    width;
    face_runs = [];
    link_face = Face.link_button;
    render_label = (fun l -> "[" ^ l.Basic_editor.label ^ "]");
  }

let buffer w = w.buffer
let cursor w = w.cursor

let set_cursor w pos =
  let line = max 0 (min pos.Basic_editor.line (Basic_editor.line_count w.buffer - 1)) in
  let col = max 0 (min pos.Basic_editor.col (String.length (Basic_editor.line_text w.buffer line))) in
  w.cursor <- { Basic_editor.line; col };
  (* Scroll the viewport to keep the cursor visible. *)
  if line < w.top_line then w.top_line <- line
  else if line >= w.top_line + w.height then w.top_line <- line - w.height + 1

let set_selection w range = w.selection <- range

let scroll_to w line = w.top_line <- max 0 line

(* How link buttons render.  The default is "[label]"; the user editor
   overrides this to mark links with unreadable targets. *)
let set_render_label w f = w.render_label <- f

(* Faces are attached to (line, start, len) runs.  Edits invalidate the
   runs of the touched lines; higher layers re-apply styling. *)
let set_face w ~line ~start ~len face =
  w.face_runs <- (line, start, len, face) :: w.face_runs

let clear_faces ?line w =
  match line with
  | None -> w.face_runs <- []
  | Some n -> w.face_runs <- List.filter (fun (l, _, _, _) -> l <> n) w.face_runs

let face_at w ~line ~col =
  let matching =
    List.find_opt (fun (l, s, len, _) -> l = line && col >= s && col < s + len) w.face_runs
  in
  match matching with
  | Some (_, _, _, face) -> face
  | None -> Face.default

(* -- editing operations (cursor-relative) ----------------------------------- *)

let insert_at_cursor w s =
  clear_faces ~line:w.cursor.Basic_editor.line w;
  let end_pos = Basic_editor.insert_text w.buffer w.cursor s in
  set_cursor w end_pos

let insert_link_at_cursor w link =
  Basic_editor.insert_link w.buffer w.cursor link

let delete_selection w =
  match w.selection with
  | None -> ()
  | Some (a, b) ->
    let from, to_ = if Basic_editor.pos_compare a b <= 0 then (a, b) else (b, a) in
    Basic_editor.delete_range w.buffer from to_;
    w.selection <- None;
    set_cursor w from

let backspace w =
  let { Basic_editor.line; col } = w.cursor in
  if col > 0 then begin
    Basic_editor.delete_range w.buffer { Basic_editor.line; col = col - 1 } w.cursor;
    set_cursor w { Basic_editor.line; col = col - 1 }
  end
  else if line > 0 then begin
    let prev_len = String.length (Basic_editor.line_text w.buffer (line - 1)) in
    Basic_editor.delete_range w.buffer
      { Basic_editor.line = line - 1; col = prev_len }
      { Basic_editor.line = line; col = 0 };
    set_cursor w { Basic_editor.line = line - 1; col = prev_len }
  end

(* -- rendering ----------------------------------------------------------------- *)

(* One visible line as styled segments: text runs split at face
   boundaries, with link buttons spliced in at their offsets. *)
let render_line w n =
  let text = Basic_editor.line_text w.buffer n in
  let links = Basic_editor.line_links w.buffer n in
  let segments = ref [] in
  let emit_text from to_ =
    if to_ > from then begin
      (* split [from,to_) at face-run boundaries *)
      let rec go col =
        if col < to_ then begin
          let face = face_at w ~line:n ~col in
          let stop = ref (col + 1) in
          while !stop < to_ && Face.equal (face_at w ~line:n ~col:!stop) face do
            incr stop
          done;
          segments := { seg_text = String.sub text col (!stop - col); seg_face = face; seg_link = false } :: !segments;
          go !stop
        end
      in
      go from
    end
  in
  let cursor_col = ref 0 in
  List.iter
    (fun (offset, link) ->
      emit_text !cursor_col offset;
      segments :=
        { seg_text = w.render_label link; seg_face = w.link_face; seg_link = true } :: !segments;
      cursor_col := max !cursor_col offset)
    links;
  emit_text !cursor_col (String.length text);
  List.rev !segments

let render_visible w =
  let last = min (Basic_editor.line_count w.buffer) (w.top_line + w.height) in
  List.init (last - w.top_line) (fun i -> render_line w (w.top_line + i))

(* ANSI rendering of the visible region. *)
let render_ansi w =
  let buf = Buffer.create 1024 in
  List.iter
    (fun segments ->
      List.iter
        (fun seg ->
          let prefix = Face.ansi seg.seg_face in
          Buffer.add_string buf prefix;
          Buffer.add_string buf seg.seg_text;
          if prefix <> "" then Buffer.add_string buf Face.ansi_reset)
        segments;
      Buffer.add_char buf '\n')
    (render_visible w);
  Buffer.contents buf

(* Plain-text rendering (labels in brackets, no colours). *)
let render_plain w =
  let buf = Buffer.create 1024 in
  List.iter
    (fun segments ->
      List.iter (fun seg -> Buffer.add_string buf seg.seg_text) segments;
      Buffer.add_char buf '\n')
    (render_visible w);
  Buffer.contents buf
