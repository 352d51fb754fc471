(* Syntactically-legal hyper-link insertion (Section 2).

   "If a hyper-link cannot be parsed as its equivalent production then it
   is syntactically illegal."  The paper's prototype accepted any
   insertion and let the compiler complain; here we implement the
   parser-directed checking the paper plans: the editor flattens the
   hyper-program with out-of-band #<n> placeholder tokens, parses it, and
   compares the syntactic role the parser assigned to each placeholder
   with the production of the link being inserted (Table 1). *)

open Minijava

type verdict =
  | Legal
  | Illegal of string

(* Which parser roles may realise each production.  A hyper-link for a
   value (object, literal, field access, array access) is textually an
   expression, so it must sit where a primary expression is accepted; a
   method or constructor link must sit in callee / new position; a type
   link must sit where a type is accepted. *)
let compatible_roles = function
  | Hyperlink.P_class_type | Hyperlink.P_primitive_type | Hyperlink.P_interface_type
  | Hyperlink.P_array_type -> [ Ast.Role_type; Ast.Role_ctor ]
  | Hyperlink.P_primary | Hyperlink.P_literal | Hyperlink.P_field_access
  | Hyperlink.P_array_access -> [ Ast.Role_primary ]
  | Hyperlink.P_name -> [ Ast.Role_callee; Ast.Role_ctor ]

(* Class and interface type links can also follow `new` only if they are
   class types; interfaces cannot be instantiated, but that is a semantic
   check, not a syntactic one — the paper's criterion is purely
   syntactic, necessary but not sufficient. *)

(* Flatten a hyper-program, inserting `#<i>` at the position of the i-th
   link: the one writer of the markers that .hp files carry too. *)
let flatten_with_placeholders (flat : Editing_form.flat) =
  fst
    (Editing_form.splice flat.Editing_form.text
       (List.mapi (fun i (pos, _, _) -> (pos, Printf.sprintf "#<%d>" i, ())) flat.Editing_form.flat_links))

(* Check every link of a flattened hyper-program for syntactic legality.
   Returns one verdict per link, in link order. *)
let check_flat ~env (flat : Editing_form.flat) : verdict list =
  let links = flat.Editing_form.flat_links in
  let source = flatten_with_placeholders flat in
  match Parser.parse_unit source with
  | exception Lexer.Lex_error (pos, msg) ->
    let m = Format.asprintf "%a: %s" Lexer.pp_pos pos msg in
    List.map (fun _ -> Illegal m) links
  | exception Parser.Parse_error (pos, msg) ->
    let m = Format.asprintf "%a: %s" Lexer.pp_pos pos msg in
    List.map (fun _ -> Illegal m) links
  | { Parser.hyper_roles; _ } ->
    List.mapi
      (fun i (_, link, _) ->
        let production = Hyperlink.production_of env link in
        match List.assoc_opt i hyper_roles with
        | None -> Illegal "hyper-link not reached by the parser"
        | Some role ->
          if List.mem role (compatible_roles production) then Legal
          else
            Illegal
              (Format.asprintf "link parses as %a but its production is %s" Ast.pp_hyper_role
                 role
                 (Hyperlink.production_name production)))
      links

(* Would inserting [link] at [pos] in [flat] be syntactically legal?

   During composition the program is usually incomplete, so the check is
   advisory: if the program does not parse even WITHOUT the candidate
   link, legality cannot be judged and the insertion is allowed (the
   paper's prototype allowed insertion anywhere; the compiler catches
   residual errors).  Only when the baseline parses and adding the link
   breaks the parse — or parses in an incompatible role — is the
   insertion refused. *)
let insertion_legal ~env (flat : Editing_form.flat) ~pos ~link =
  let parses f =
    match Parser.parse_unit (flatten_with_placeholders f) with
    | _ -> true
    | exception (Lexer.Lex_error _ | Parser.Parse_error _) -> false
  in
  let augmented =
    {
      flat with
      Editing_form.flat_links = flat.Editing_form.flat_links @ [ (pos, link, "candidate") ];
    }
  in
  if parses augmented then begin
    (* The program with the link parses: judge the link by the role the
       parser assigned to it. *)
    let verdicts = check_flat ~env augmented in
    match List.rev verdicts with
    | v :: _ -> v
    | [] -> Illegal "empty program"
  end
  else if parses flat then
    Illegal "inserting the link at this position breaks the parse"
  else
    (* Neither form parses — the program is still being composed;
       legality cannot be judged yet, so the insertion is allowed. *)
    Legal

(* -- Table 1 self-check -------------------------------------------------------
   For each hyper-link kind, a canonical context where its production is
   accepted, used by tests and by the Table 1 bench to print the legality
   matrix. *)

let table1_cases vm =
  let open Pstore in
  let obj_oid = Store.Session.alloc_string vm.Rt.session "witness" in
  let arr_oid =
    Store.Session.alloc_array vm.Rt.session "I" [| Pvalue.Int 1l; Pvalue.Int 2l |]
  in
  [
    ( "class",
      Hyperlink.L_type (Jtype.Class Jtype.object_class),
      "public class T { #<0> f; }" );
    ("primitive type", Hyperlink.L_type Jtype.Int, "public class T { #<0> f; }");
    ( "interface",
      Hyperlink.L_type (Jtype.Class "Marker"),
      "public class T { #<0> f; }" );
    ( "array type",
      Hyperlink.L_type (Jtype.Array Jtype.Int),
      "public class T { #<0> f; }" );
    ( "object",
      Hyperlink.L_object obj_oid,
      "public class T { void m() { Object x = #<0>; } }" );
    ( "primitive value",
      Hyperlink.L_primitive (Pvalue.Int 42l),
      "public class T { void m() { int x = #<0>; } }" );
    ( "(static) field",
      Hyperlink.L_static_field { cls = "T"; name = "f" },
      "public class T { static int f; void m() { int x = #<0>; } }" );
    ( "(static) method",
      Hyperlink.L_static_method { cls = "T"; name = "m"; desc = "()V" },
      "public class T { void m() { #<0>(); } }" );
    ( "constructor",
      Hyperlink.L_constructor { cls = "T"; desc = "()V" },
      "public class T { void m() { Object x = new #<0>(); } }" );
    ( "array",
      Hyperlink.L_object arr_oid,
      "public class T { void m() { Object x = #<0>; } }" );
    ( "array element",
      Hyperlink.L_array_element { array = arr_oid; index = 0 },
      "public class T { void m() { int x = #<0>; } }" );
  ]

(* Evaluate the Table 1 matrix: (kind, production, legal-in-context). *)
let table1 vm ~env =
  List.map
    (fun (kind_name, link, context) ->
      let production = Hyperlink.production_of env link in
      let legal =
        match Parser.parse_unit context with
        | exception (Lexer.Lex_error _ | Parser.Parse_error _) -> false
        | { Parser.hyper_roles; _ } -> begin
          match List.assoc_opt 0 hyper_roles with
          | Some role -> List.mem role (compatible_roles production)
          | None -> false
        end
      in
      (kind_name, Hyperlink.production_name production, legal))
    (table1_cases vm)
