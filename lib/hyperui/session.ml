(* The hyper-programming user interface (Section 5.4, Figure 12): the
   integration of the hyper-program editor with the OCB browser.

   The interactions modelled:
   - composing by typing into an editor window and inserting links to
     data discovered in the browser;
   - "Insert Link": link the entity displayed in the front-most browser
     panel into the selected editor at the cursor — choosing either the
     value or the location (the paper's right-half / left-half choice);
   - pressing a link button displays the linked entity in a browser panel;
   - "Display Class" and "Go" over the compiled hyper-program. *)

open Pstore
open Minijava
open Hyperprog

type t = {
  vm : Rt.t;
  browser : Browser.Ocb.t;
  mutable editors : (int * Editor.User_editor.t) list; (* front-most first *)
  mutable next_editor : int;
  mutable log : string list; (* event log, newest first *)
}

let log session fmt =
  Format.kasprintf (fun s -> session.log <- s :: session.log) fmt

let events session = List.rev session.log

(* Create a session over a store: boots (or reopens) a VM, installs the
   hyper-programming runtime, and opens a browser on the roots. *)
let create ?(echo = false) store =
  let vm = Boot.vm_for store in
  vm.Rt.echo <- echo;
  Dynamic_compiler.install vm;
  let browser = Browser.Ocb.create vm in
  { vm; browser; editors = []; next_editor = 1; log = [] }

let vm session = session.vm
let browser session = session.browser

(* -- editors -------------------------------------------------------------------- *)

let new_editor ?(class_name = "") session =
  let ed = Editor.User_editor.create ~class_name session.vm in
  let id = session.next_editor in
  session.next_editor <- id + 1;
  session.editors <- (id, ed) :: session.editors;
  log session "opened editor %d" id;
  (id, ed)

let front_editor session =
  match session.editors with
  | (_, ed) :: _ -> Some ed
  | [] -> None

(* -- the browser-to-editor link protocol ------------------------------------------ *)

(* Translate a browser entity (the value half of a row) into a
   hyper-link. *)
let link_of_entity = function
  | Browser.Ocb.E_object oid -> Some (Hyperlink.L_object oid)
  | Browser.Ocb.E_value v when Pvalue.is_primitive v -> Some (Hyperlink.L_primitive v)
  | Browser.Ocb.E_value _ -> None
  | Browser.Ocb.E_class name -> Some (Hyperlink.L_type (Jtype.Class name))
  | Browser.Ocb.E_method { cls; name; desc; static } ->
    if static then Some (Hyperlink.L_static_method { cls; name; desc })
    else Some (Hyperlink.L_instance_method { cls; name; desc })
  | Browser.Ocb.E_constructor { cls; desc } -> Some (Hyperlink.L_constructor { cls; desc })
  | Browser.Ocb.E_roots -> None

(* Translate a browser location (the left half of a row). *)
let link_of_location = function
  | Browser.Ocb.Loc_static_field (cls, name) -> Hyperlink.L_static_field { cls; name }
  | Browser.Ocb.Loc_instance_field (holder, cls, name) ->
    Hyperlink.L_instance_field { target = holder; cls; name }
  | Browser.Ocb.Loc_array_element (arr, idx) ->
    Hyperlink.L_array_element { array = arr; index = idx }

type half =
  | Value_half (* right half: link to the value *)
  | Location_half (* left half: link to the location *)

(* Press the Insert Link button: insert a link to the entity displayed in
   the front-most browser panel into the front-most editor. *)
let insert_link_from_browser ?(half = Value_half) ?check session =
  match front_editor session, Browser.Ocb.front session.browser with
  | None, _ -> Error "no editor open"
  | _, None -> Error "no browser panel open"
  | Some ed, Some panel -> begin
    let link =
      match half, panel.Browser.Ocb.entity with
      | Value_half, entity -> link_of_entity entity
      | Location_half, entity -> begin
        (* The location half of the selected row, if any. *)
        match panel.Browser.Ocb.selected with
        | Some n -> begin
          match List.nth_opt (Browser.Ocb.rows session.browser panel) n with
          | Some { Browser.Ocb.row_location = Some loc; _ } -> Some (link_of_location loc)
          | _ -> None
        end
        | None -> begin
          match entity with
          | Browser.Ocb.E_object _ -> link_of_entity entity
          | _ -> None
        end
      end
    in
    match link with
    | None -> Error "front panel does not display a linkable entity"
    | Some link -> begin
      match Editor.User_editor.insert_link ?check ed link with
      | Ok () ->
        log session "inserted link: %s" (Format.asprintf "%a" Hyperlink.pp link);
        Ok link
      | Error reason ->
        log session "refused illegal link insertion: %s" reason;
        Error reason
    end
  end

(* Insert a link to the n-th row of the front browser panel ("pressing
   the right-hand mouse button over a denotable entity"). *)
let insert_link_from_row ?(half = Value_half) ?check session ~row =
  match front_editor session, Browser.Ocb.front session.browser with
  | None, _ -> Error "no editor open"
  | _, None -> Error "no browser panel open"
  | Some ed, Some panel -> begin
    match List.nth_opt (Browser.Ocb.rows session.browser panel) row with
    | None -> Error "no such row"
    | Some r -> begin
      let link =
        match half with
        | Value_half -> Option.bind r.Browser.Ocb.row_value link_of_entity
        | Location_half -> Option.map link_of_location r.Browser.Ocb.row_location
      in
      match link with
      | None -> Error "row has no linkable value/location"
      | Some link -> begin
        match Editor.User_editor.insert_link ?check ed link with
        | Ok () ->
          log session "inserted link: %s" (Format.asprintf "%a" Hyperlink.pp link);
          Ok link
        | Error reason -> Error reason
      end
    end
  end

(* Press a link button in the editor: display the linked entity in a
   browser panel. *)
let press_link_button session pos =
  match front_editor session with
  | None -> Error "no editor open"
  | Some ed -> begin
    match Editor.User_editor.press_button ed pos with
    | None -> Error "no link at that position"
    | Some link -> begin
      let entity =
        match link with
        | Hyperlink.L_object oid -> Some (Browser.Ocb.E_object oid)
        | Hyperlink.L_primitive v -> Some (Browser.Ocb.E_value v)
        | Hyperlink.L_type (Jtype.Class name) -> Some (Browser.Ocb.E_class name)
        | Hyperlink.L_type _ -> None
        | Hyperlink.L_static_method { cls; name; desc } ->
          Some (Browser.Ocb.E_method { cls; name; desc; static = true })
        | Hyperlink.L_instance_method { cls; name; desc } ->
          Some (Browser.Ocb.E_method { cls; name; desc; static = false })
        | Hyperlink.L_constructor { cls; desc } ->
          Some (Browser.Ocb.E_constructor { cls; desc })
        | Hyperlink.L_static_field { cls; _ } -> Some (Browser.Ocb.E_class cls)
        | Hyperlink.L_instance_field { target; _ } -> Some (Browser.Ocb.E_object target)
        | Hyperlink.L_array_element { array; _ } -> Some (Browser.Ocb.E_object array)
      in
      match entity with
      | None -> Error "link target cannot be displayed"
      | Some entity ->
        let panel = Browser.Ocb.open_entity session.browser entity in
        log session "followed link button to %s"
          (Browser.Ocb.entity_title session.browser entity);
        Ok panel
    end
  end

(* -- Compile / Display Class / Go (Section 5.4.2) ----------------------------------- *)

let compile ?mode session =
  match front_editor session with
  | None -> Editor.User_editor.Compile_failed "no editor open"
  | Some ed ->
    let outcome = Editor.User_editor.compile ?mode ed in
    (match outcome with
    | Editor.User_editor.Compiled classes ->
      log session "compiled: %s" (String.concat ", " classes)
    | Editor.User_editor.Compile_failed msg -> log session "compilation failed: %s" msg);
    outcome

(* Display the principal class of the front editor in the browser. *)
let display_class ?mode session =
  match compile ?mode session with
  | Editor.User_editor.Compiled (principal :: _) ->
    Ok (Browser.Ocb.open_class session.browser principal)
  | Editor.User_editor.Compiled [] -> Error "no classes compiled"
  | Editor.User_editor.Compile_failed msg -> Error msg

let go ?mode ?argv session =
  match front_editor session with
  | None -> Error "no editor open"
  | Some ed -> begin
    match Editor.User_editor.go ?mode ?argv ed with
    | Ok principal ->
      log session "ran %s.main" principal;
      Ok principal
    | Error msg ->
      log session "Go failed: %s" msg;
      Error msg
  end

(* The hyper-code association (Section 6): open a class's originating
   hyper-program in a fresh editor — the programmer only ever sees
   hyper-code, never the textual/compiled artefacts. *)
let edit_class session cls =
  match Dynamic_compiler.hyper_program_of_class session.vm cls with
  | None -> Error (Printf.sprintf "class %s was not compiled from a live hyper-program" cls)
  | Some hp_oid ->
    let id, ed = new_editor session in
    Editor.User_editor.load ed hp_oid;
    log session "opened hyper-program of class %s in editor %d" cls id;
    Ok (id, ed)

(* Program output produced so far (System.out). *)
let output session = Rt.take_output session.vm

(* -- rendering ------------------------------------------------------------------ *)

let render session =
  let buf = Buffer.create 2048 in
  (match front_editor session with
  | Some ed ->
    Buffer.add_string buf "=== editor ===\n";
    Buffer.add_string buf (Editor.User_editor.render ed)
  | None -> ());
  Buffer.add_string buf "\n=== browser ===\n";
  Buffer.add_string buf (Browser.Render.browser session.browser);
  Buffer.contents buf

(* Drag and drop: drop the n-th row of the front browser panel at a
   position in the front editor (Section 5.4.1's planned interaction). *)
let drag_from_browser ?half ?check session ~row ~pos =
  match front_editor session with
  | None -> Error "no editor open"
  | Some ed ->
    Editor.User_editor.move_cursor ed pos;
    insert_link_from_row ?half ?check session ~row
