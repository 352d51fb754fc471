(* The textual form (Section 4.1, Figure 8): each hyper-link is replaced
   by an equivalent textual denotation so any standard compiler can
   compile the program.  Links to store objects become retrieval
   expressions through the password-protected registry; links to methods,
   fields, types and primitive values become plain source text. *)

open Pstore
open Minijava

exception Textual_error of string

let textual_error fmt = Format.kasprintf (fun s -> raise (Textual_error s)) fmt

(* Java source syntax for a type (casts in retrieval expressions). *)
let type_source ty = Jtype.to_string ty

(* The source form of the runtime class of a store object, for casts. *)
let cast_type vm oid =
  match Store.Session.get Rt.(vm.session) oid with
  | Pstore.Heap.Record r -> r.Pstore.Heap.class_name
  | Pstore.Heap.Str _ -> Jtype.string_class
  | Pstore.Heap.Array a -> type_source (Jtype.of_descriptor a.Pstore.Heap.elem_type) ^ "[]"
  | Pstore.Heap.Weak _ -> textual_error "cannot hyper-link a weak cell"

(* Java literal text for a primitive value. *)
let literal_source v =
  match v with
  | Pvalue.Bool b -> if b then "true" else "false"
  | Pvalue.Byte n -> Printf.sprintf "(byte) %d" n
  | Pvalue.Short n -> Printf.sprintf "(short) %d" n
  | Pvalue.Char c ->
    if c >= 32 && c < 127 && c <> Char.code '\'' && c <> Char.code '\\' then
      Printf.sprintf "'%c'" (Char.chr c)
    else Printf.sprintf "'\\u%04x'" c
  | Pvalue.Int n -> Int32.to_string n
  | Pvalue.Long n -> Int64.to_string n ^ "L"
  | Pvalue.Float f -> Printf.sprintf "%.17gf" f
  | Pvalue.Double f -> Printf.sprintf "%.17g" f
  | Pvalue.Null -> "null"
  | Pvalue.Ref _ -> textual_error "reference is not a primitive value"

let get_link_call ~password ~hp_uid ~link_index =
  Printf.sprintf "DynamicCompiler.getLink(\"%s\", %d, %d)" password hp_uid link_index

(* The store object a link dereferences at run time, if any. *)
let target_oid_of = function
  | Hyperlink.L_object oid -> Some oid
  | Hyperlink.L_instance_field { target; _ } -> Some target
  | Hyperlink.L_array_element { array; _ } -> Some array
  | Hyperlink.L_primitive _ | Hyperlink.L_type _ | Hyperlink.L_static_method _
  | Hyperlink.L_instance_method _ | Hyperlink.L_constructor _ | Hyperlink.L_static_field _ ->
    None

(* [Some reason] if the oid cannot be read (quarantined or dangling). *)
let target_damage vm oid =
  match Store.Session.try_get Rt.(vm.session) oid with
  | Ok _ -> None
  | Error (Failure.Quarantined { reason; _ }) -> Some reason
  | Error e -> Some (Failure.describe e)

(* Keep damage reasons from closing the generated comment early: without
   a '/' no "*/" can appear. *)
let comment_safe reason = String.map (fun c -> if c = '/' then '.' else c) reason

(* The placeholder spliced in for a link whose target cannot be read:
   still parses as an expression, and carries the diagnosis where the
   programmer will look.  The cast keeps it a reference-typed value. *)
let broken_placeholder ~link_index reason =
  Printf.sprintf "((java.lang.Object) null /* broken hyper-link %d: %s */)" link_index
    (comment_safe reason)

(* The textual equivalent of one hyper-link (Section 4.2).  Links whose
   target store object is quarantined or dangling degrade to
   {!broken_placeholder} instead of raising. *)
let link_expression vm ~password ~hp_uid ~link_index (link : Hyperlink.t) =
  let retrieval = get_link_call ~password ~hp_uid ~link_index in
  match Option.bind (target_oid_of link) (target_damage vm) with
  | Some reason -> broken_placeholder ~link_index reason
  | None -> begin
    match link with
    | Hyperlink.L_static_method { cls; name; _ } ->
      (* "fully qualified method name" — no store retrieval needed *)
      Printf.sprintf "%s.%s" cls name
    | Hyperlink.L_instance_method { name; _ } ->
      (* spliced after a receiver expression and dot in the program text *)
      name
    | Hyperlink.L_constructor { cls; _ } -> cls
    | Hyperlink.L_type ty -> type_source ty
    | Hyperlink.L_primitive v -> literal_source v
    | Hyperlink.L_object oid ->
      Printf.sprintf "((%s) %s.getObject())" (cast_type vm oid) retrieval
    | Hyperlink.L_static_field { cls; name } -> Printf.sprintf "%s.%s" cls name
    | Hyperlink.L_instance_field { target; cls = _; name } ->
      Printf.sprintf "((%s) %s.getObject()).%s" (cast_type vm target) retrieval name
    | Hyperlink.L_array_element { array; index } ->
      Printf.sprintf "((%s) %s.getObject())[%d]" (cast_type vm array) retrieval index
  end

(* Does this link kind need the registry at run time? *)
let needs_retrieval = function
  | Hyperlink.L_object _ | Hyperlink.L_instance_field _ | Hyperlink.L_array_element _ -> true
  | Hyperlink.L_primitive _ | Hyperlink.L_type _ | Hyperlink.L_static_method _
  | Hyperlink.L_instance_method _ | Hyperlink.L_constructor _ | Hyperlink.L_static_field _ ->
    false

(* Where the DynamicCompiler import goes in [body]: after a package line,
   else at the top.  Returns the offset and the text inserted there. *)
let add_import body =
  let import = "import compiler.DynamicCompiler;" in
  let first_end = String.index_opt body '\n' in
  let first = match first_end with Some i -> String.sub body 0 i | None -> body in
  if not (String.starts_with ~prefix:"package" (String.trim first)) then (0, import ^ "\n")
  else
    match first_end with
    | Some i -> (i + 1, import ^ "\n")
    | None -> (String.length body, "\n" ^ import)

(* ---------------------------------------------------------------------- *)
(* Source maps: textual form -> hyper-program positions                    *)
(*                                                                         *)
(* The paper reports compile errors "in terms of the translated textual   *)
(* form, which may not be comprehensible to the programmer" and plans to  *)
(* display them in terms of the original hyper-program.  The source map   *)
(* implements that plan: every character of the generated textual form is *)
(* attributed either to a position in the original storage-form text, to  *)
(* one of the hyper-links, or to the generated import header.             *)
(* ---------------------------------------------------------------------- *)

type origin =
  | From_text of int (* offset in the storage-form text *)
  | From_link of int (* index of the hyper-link whose expansion covers it *)
  | From_header (* the generated import line and unreadable-link comments *)

type source_map = {
  (* The splice's segments, (start offset in the textual form, length,
     origin), tagged with getLink indices; offsets no segment covers are
     the generated header. *)
  segments : (int * int * int Editing_form.origin) list;
}

(* Attribute a textual-form offset to its origin. *)
let map_offset map offset =
  let covers (start, len, _) = offset >= start && offset < start + len in
  match List.find_opt covers map.segments with
  | Some (start, _, Editing_form.Text base) -> From_text (base + (offset - start))
  | Some (_, _, Editing_form.Inserted link) -> From_link link
  | None -> From_header

(* Line/column <-> offset conversions over a text. *)
let offset_of_pos text (pos : Lexer.pos) =
  let rec find_line offset line =
    if line >= pos.Lexer.line then offset
    else
      match String.index_from_opt text offset '\n' with
      | Some nl -> find_line (nl + 1) (line + 1)
      | None -> String.length text
  in
  let bol = find_line 0 1 in
  min (String.length text) (bol + pos.Lexer.col - 1)

let pos_of_offset text offset =
  let line = ref 1 and bol = ref 0 in
  String.iteri
    (fun i c ->
      if i < offset && c = '\n' then begin
        incr line;
        bol := i + 1
      end)
    text;
  { Lexer.line = !line; col = offset - !bol + 1 }

(* Move the segments at or after [at] by [by]; a segment that spans [at]
   is split there. *)
let shift_from ~at ~by segments =
  List.concat_map
    (fun ((start, len, origin) as segment) ->
      if start >= at then [ (start + by, len, origin) ]
      else if start + len <= at then [ segment ]
      else
        let rest =
          match origin with Editing_form.Text base -> Editing_form.Text (base + at - start) | o -> o
        in
        [ (start, at - start, origin); (at + by, start + len - at, rest) ])
    segments

(* Generate the textual form of a registered hyper-program (its uid must
   have been allocated by Registry.add_hp) together with its source map.
   Links whose HyperLinkHP instance cannot be read are reported in a
   header comment; links whose target entity cannot be read splice in
   {!broken_placeholder}.  Every link keeps its getLink index. *)
let generate_mapped vm hp_oid =
  let hp_uid = Storage_form.uid vm hp_oid in
  if hp_uid < 0 then
    textual_error "hyper-program is not registered; call Registry.add_hp first";
  let text = Storage_form.text vm hp_oid in
  let links = Storage_form.readable_links vm hp_oid in
  let expansions =
    List.filter_map
      (function
        | link_index, _, Ok (spec : Storage_form.link_spec) ->
          Some
            ( spec.Storage_form.pos,
              link_expression vm ~password:Registry.built_in_password ~hp_uid ~link_index
                spec.Storage_form.link,
              link_index )
        | _, _, Error _ -> None)
      links
  in
  let body, segments = Editing_form.splice text expansions in
  let header =
    String.concat ""
      (List.filter_map
         (function
           | i, _, Error reason ->
             Some
               (Printf.sprintf "/* %s */\n"
                  (Storage_form.describe_unreadable i (comment_safe reason)))
           | _, _, Ok _ -> None)
         links)
  in
  let needs_import =
    List.exists
      (function
        | _, _, Ok spec -> needs_retrieval spec.Storage_form.link | _, _, Error _ -> false)
      links
  in
  let at, import = if needs_import then add_import body else (0, "") in
  let textual =
    String.concat ""
      [ header; String.sub body 0 at; import; String.sub body at (String.length body - at) ]
  in
  let hlen = String.length header in
  let segments =
    segments |> shift_from ~at:0 ~by:hlen |> shift_from ~at:(hlen + at) ~by:(String.length import)
  in
  (textual, { segments })

let generate vm hp_oid = fst (generate_mapped vm hp_oid)

(* Explain a position in the textual form in hyper-program terms. *)
type explained =
  | In_text of Lexer.pos (* position within the hyper-program's own text *)
  | In_link of int * string (* hyper-link index and label *)
  | In_generated (* generated header *)

let explain vm hp_oid map ~textual ~(pos : Lexer.pos) =
  let offset = offset_of_pos textual pos in
  match map_offset map offset with
  | From_text orig ->
    let text = Storage_form.text vm hp_oid in
    In_text (pos_of_offset text orig)
  | From_link idx ->
    let label =
      match List.nth_opt (Storage_form.readable_links vm hp_oid) idx with
      | Some (_, _, Ok spec) -> spec.Storage_form.label
      | Some (_, _, Error _) | None -> string_of_int idx
    in
    In_link (idx, label)
  | From_header -> In_generated

let pp_explained ppf = function
  | In_text pos -> Format.fprintf ppf "at %a in the hyper-program" Lexer.pp_pos pos
  | In_link (idx, label) -> Format.fprintf ppf "in hyper-link %d [%s]" idx label
  | In_generated -> Format.pp_print_string ppf "in generated code"
