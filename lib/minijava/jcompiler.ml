(* The dynamically callable compiler facade: source text in, class files
   out.  This is the compiler that linguistic reflection invokes at run
   time (paper Section 4). *)

type error = {
  pos : Lexer.pos;
  message : string;
}

exception Compile_error of error

let compile_error pos message = raise (Compile_error { pos; message })

let pp_error ppf { pos; message } =
  Format.fprintf ppf "%a: %s" Lexer.pp_pos pos message

(* Compile a batch of sources together against an environment of
   already-available classes. *)
let compile_units ~env (sources : string list) : Classfile.t list =
  let parsed =
    List.map
      (fun source ->
        match Parser.parse_unit source with
        | { Parser.unit_; _ } -> (unit_, Some source)
        | exception Lexer.Lex_error (pos, message) -> compile_error pos message
        | exception Parser.Parse_error (pos, message) -> compile_error pos message)
      sources
  in
  let tclasses =
    try Typecheck.check_units ~env parsed
    with Typecheck.Type_error (pos, message) -> compile_error pos message
  in
  List.map Compile.compile_class tclasses

(* Compile against a VM's loaded classes and link the result into it.
   Returns the classes in definition order.  With [redefine] (default
   false), classes that are already loaded are redefined in place and
   their instances migrated (see Linker). *)
let compile_and_load ?persist ?(redefine = false) vm sources =
  let cfs = compile_units ~env:(Rt.class_env vm) sources in
  if redefine then Linker.load_or_redefine_batch ?persist vm cfs
  else Linker.load_batch ?persist vm cfs

(* The names of the public classes defined by a source string, without
   compiling it (used to name hyper-programs). *)
let class_names_of_source source =
  let { Parser.unit_; _ } = Parser.parse_unit source in
  List.map
    (fun cd ->
      match unit_.Ast.cu_package with
      | None -> cd.Ast.cd_name
      | Some p -> Ast.dotted p ^ "." ^ cd.Ast.cd_name)
    unit_.Ast.cu_classes
