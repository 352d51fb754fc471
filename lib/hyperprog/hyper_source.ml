(* A textual interchange format for hyper-programs.

   Section 6 notes that printing and transferring hyper-programs is
   hindered by the links, and publishes them as HTML with links as URLs.
   This module provides the read/write counterpart: a `.hp` file carries
   the program text with `#<n>` markers at link positions and a header
   that describes each link symbolically, so hyper-programs can be
   authored in a plain editor and shipped between stores.  Store-object
   links are written either as named roots (portable) or raw oids
   (store-specific).

     //! class: MarryExample
     //! link 0: method Person.marry (LPerson;LPerson;)V
     //! link 1: root vangelis
     //! link 2: root mary
     public class MarryExample {
       public static void main(String[] args) {
         #<0>(#<1>, #<2>);
       }
     }
*)

open Pstore
open Minijava

exception Format_error of string

let format_error fmt = Format.kasprintf (fun s -> raise (Format_error s)) fmt

(* -- link spec syntax ----------------------------------------------------- *)

(* A target is `root:NAME` or `@OID`. *)
let parse_target vm word =
  if String.length word > 5 && String.sub word 0 5 = "root:" then begin
    let name = String.sub word 5 (String.length word - 5) in
    match Store.Session.root vm.Rt.session name with
    | Some (Pvalue.Ref oid) -> oid
    | Some v -> format_error "root %s holds a primitive (%s), not an object" name (Pvalue.to_string v)
    | None -> format_error "no persistent root named %s" name
  end
  else if String.length word > 1 && word.[0] = '@' then
    Oid.of_int (int_of_string (String.sub word 1 (String.length word - 1)))
  else format_error "bad target %S (expected root:NAME or @OID)" word

let split_words s = String.split_on_char ' ' s |> List.filter (fun w -> w <> "")

let split_member dotted =
  match String.rindex_opt dotted '.' with
  | Some i ->
    (String.sub dotted 0 i, String.sub dotted (i + 1) (String.length dotted - i - 1))
  | None -> format_error "expected CLASS.MEMBER, got %S" dotted

(* Resolve a method link, using the VM to decide static vs instance and
   fill in the descriptor when only the name is given. *)
let method_link vm dotted desc_opt =
  let cls, name = split_member dotted in
  let candidates =
    Reflect.methods_of_class vm cls ~include_inherited:true
    |> List.filter (fun m -> String.equal m.Rt.rm_name name)
  in
  let rm =
    match desc_opt with
    | Some desc -> begin
      match List.find_opt (fun m -> String.equal m.Rt.rm_desc desc) candidates with
      | Some m -> m
      | None -> format_error "no method %s.%s with descriptor %s" cls name desc
    end
    | None -> begin
      match candidates with
      | [ m ] -> m
      | [] -> format_error "no method %s.%s" cls name
      | _ -> format_error "method %s.%s is overloaded; give its descriptor" cls name
    end
  in
  if rm.Rt.rm_static then
    Hyperlink.L_static_method { cls; name; desc = rm.Rt.rm_desc }
  else Hyperlink.L_instance_method { cls = rm.Rt.rm_class; name; desc = rm.Rt.rm_desc }

let parse_link vm spec =
  match split_words spec with
  | [ "root"; name ] -> Hyperlink.L_object (parse_target vm ("root:" ^ name))
  | [ "object"; target ] -> Hyperlink.L_object (parse_target vm target)
  | [ "int"; n ] -> Hyperlink.L_primitive (Pvalue.Int (Int32.of_string n))
  | [ "long"; n ] -> Hyperlink.L_primitive (Pvalue.Long (Int64.of_string n))
  | [ "double"; x ] -> Hyperlink.L_primitive (Pvalue.Double (float_of_string x))
  | [ "float"; x ] -> Hyperlink.L_primitive (Pvalue.Float (float_of_string x))
  | [ "boolean"; b ] -> Hyperlink.L_primitive (Pvalue.Bool (bool_of_string b))
  | [ "char"; c ] -> Hyperlink.L_primitive (Pvalue.char (int_of_string c))
  | [ "type"; desc ] -> Hyperlink.L_type (Jtype.of_descriptor desc)
  | [ "method"; dotted ] -> method_link vm dotted None
  | [ "method"; dotted; desc ] -> method_link vm dotted (Some desc)
  | [ "constructor"; cls ] -> begin
    match Rt.find_class vm cls with
    | None -> format_error "unknown class %s" cls
    | Some rc -> begin
      match Hashtbl.find_opt rc.Rt.rc_methods "<init>" with
      | Some [ ctor ] -> Hyperlink.L_constructor { cls; desc = ctor.Rt.rm_desc }
      | Some _ -> format_error "constructor of %s is overloaded; give its descriptor" cls
      | None -> format_error "class %s has no constructor" cls
    end
  end
  | [ "constructor"; cls; desc ] -> Hyperlink.L_constructor { cls; desc }
  | [ "field"; dotted ] ->
    let cls, name = split_member dotted in
    Hyperlink.L_static_field { cls; name }
  | [ "field"; target; dotted ] ->
    let cls, name = split_member dotted in
    Hyperlink.L_instance_field { target = parse_target vm target; cls; name }
  | [ "element"; target; idx ] ->
    Hyperlink.L_array_element { array = parse_target vm target; index = int_of_string idx }
  | _ -> format_error "bad link specification %S" spec

(* -- parsing the whole file ------------------------------------------------ *)

let header_prefix = "//!"

type parsed = {
  p_class_name : string;
  p_text : string;
  p_links : Storage_form.link_spec list;
}

(* Extract `#<n>` markers from the body, returning the stripped text and
   (index, position) pairs. *)
let strip_markers body =
  let buf = Buffer.create (String.length body) in
  let markers = ref [] in
  let n = String.length body in
  let rec go i =
    if i >= n then ()
    else if i + 2 < n && body.[i] = '#' && body.[i + 1] = '<' then begin
      match String.index_from_opt body (i + 2) '>' with
      | Some stop when stop > i + 2 ->
        let digits = String.sub body (i + 2) (stop - i - 2) in
        (match int_of_string_opt digits with
        | Some idx ->
          markers := (idx, Buffer.length buf) :: !markers;
          go (stop + 1)
        | None ->
          Buffer.add_char buf body.[i];
          go (i + 1))
      | _ ->
        Buffer.add_char buf body.[i];
        go (i + 1)
    end
    else begin
      Buffer.add_char buf body.[i];
      go (i + 1)
    end
  in
  go 0;
  (Buffer.contents buf, List.rev !markers)

let parse vm source =
  let lines = String.split_on_char '\n' source in
  let headers, body_lines =
    let rec split acc = function
      | line :: rest
        when String.length line >= String.length header_prefix
             && String.sub line 0 (String.length header_prefix) = header_prefix ->
        split (String.sub line 3 (String.length line - 3) :: acc) rest
      | rest -> (List.rev acc, rest)
    in
    split [] lines
  in
  let class_name = ref "" in
  let link_specs = Hashtbl.create 8 in
  List.iter
    (fun header ->
      let header = String.trim header in
      match String.index_opt header ':' with
      | None -> format_error "bad header line %S" header
      | Some colon -> begin
        let key = String.trim (String.sub header 0 colon) in
        let value = String.trim (String.sub header (colon + 1) (String.length header - colon - 1)) in
        match split_words key with
        | [ "class" ] -> class_name := value
        | [ "link"; idx ] -> Hashtbl.replace link_specs (int_of_string idx) value
        | _ -> format_error "unknown header %S" key
      end)
    headers;
  let body = String.concat "\n" body_lines in
  let text, markers = strip_markers body in
  let links =
    List.map
      (fun (idx, pos) ->
        match Hashtbl.find_opt link_specs idx with
        | None -> format_error "marker #<%d> has no link header" idx
        | Some spec ->
          let link = parse_link vm spec in
          { Storage_form.link; label = spec; pos })
      markers
  in
  (* every declared link must be used *)
  Hashtbl.iter
    (fun idx _ ->
      if not (List.exists (fun (i, _) -> i = idx) markers) then
        format_error "link %d is declared but never used" idx)
    link_specs;
  { p_class_name = !class_name; p_text = text; p_links = links }

(* Parse and create the storage-form instance. *)
let to_storage vm source =
  let { p_class_name; p_text; p_links } = parse vm source in
  let class_name =
    if p_class_name <> "" then p_class_name
    else
      match Jcompiler.class_names_of_source p_text with
      | first :: _ -> first
      | [] | (exception _) -> ""
  in
  Storage_form.create vm ~class_name ~text:p_text ~links:p_links

(* -- printing --------------------------------------------------------------- *)

(* Print a link spec; object-ish links print as raw oids unless a named
   root points at exactly that object. *)
let print_target vm oid =
  let named =
    Store.Session.root_names vm.Rt.session
    |> List.find_opt (fun name ->
           match Store.Session.root vm.Rt.session name with
           | Some (Pvalue.Ref o) -> Oid.equal o oid
           | _ -> false)
  in
  match named with
  | Some name -> "root:" ^ name
  | None -> Printf.sprintf "@%d" (Oid.to_int oid)

let print_link vm = function
  | Hyperlink.L_object oid -> "object " ^ print_target vm oid
  | Hyperlink.L_primitive (Pvalue.Int n) -> Printf.sprintf "int %ld" n
  | Hyperlink.L_primitive (Pvalue.Long n) -> Printf.sprintf "long %Ld" n
  | Hyperlink.L_primitive (Pvalue.Double f) -> Printf.sprintf "double %.17g" f
  | Hyperlink.L_primitive (Pvalue.Float f) -> Printf.sprintf "float %.17g" f
  | Hyperlink.L_primitive (Pvalue.Bool b) -> Printf.sprintf "boolean %b" b
  | Hyperlink.L_primitive (Pvalue.Char c) -> Printf.sprintf "char %d" c
  | Hyperlink.L_primitive v -> format_error "unprintable primitive %s" (Pvalue.to_string v)
  | Hyperlink.L_type ty -> "type " ^ Jtype.descriptor ty
  | Hyperlink.L_static_method { cls; name; desc } -> Printf.sprintf "method %s.%s %s" cls name desc
  | Hyperlink.L_instance_method { cls; name; desc } ->
    Printf.sprintf "method %s.%s %s" cls name desc
  | Hyperlink.L_constructor { cls; desc } -> Printf.sprintf "constructor %s %s" cls desc
  | Hyperlink.L_static_field { cls; name } -> Printf.sprintf "field %s.%s" cls name
  | Hyperlink.L_instance_field { target; cls; name } ->
    Printf.sprintf "field %s %s.%s" (print_target vm target) cls name
  | Hyperlink.L_array_element { array; index } ->
    Printf.sprintf "element %s %d" (print_target vm array) index

(* A link whose record cannot be read has no spec to print, so the
   program is refused rather than written with a hole in it. *)
let of_storage vm hp_oid =
  let links =
    List.map
      (function
        | _, _, Ok spec -> spec
        | i, _, Error reason -> format_error "hyper-link %d cannot be read: %s" i reason)
      (Storage_form.readable_links vm hp_oid)
  in
  let class_name = Storage_form.class_name vm hp_oid in
  String.concat ""
    ((if class_name = "" then [] else [ Printf.sprintf "//! class: %s\n" class_name ])
    @ List.mapi
        (fun i (s : Storage_form.link_spec) ->
          Printf.sprintf "//! link %d: %s\n" i (print_link vm s.Storage_form.link))
        links
    @ [
        Productions.flatten_with_placeholders
          {
            Editing_form.text = Storage_form.text vm hp_oid;
            flat_links = List.map Editing_form.flat_link links;
          };
      ])
