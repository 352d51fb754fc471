(* MiniJava semantic types, method signatures and descriptors, plus the
   class-info view that the type checker uses to see classes it did not
   itself compile (e.g. classes already loaded in a running VM).  The
   descriptor syntax follows the JVM conventions so class files stay
   compact and unambiguous. *)

type t =
  | Boolean
  | Byte
  | Short
  | Char
  | Int
  | Long
  | Float
  | Double
  | Class of string (* fully qualified class or interface name *)
  | Array of t
  | Null_t (* the type of the null literal; checker-internal *)
  | Void

let rec equal a b =
  match a, b with
  | Boolean, Boolean | Byte, Byte | Short, Short | Char, Char | Int, Int | Long, Long
  | Float, Float | Double, Double | Null_t, Null_t | Void, Void -> true
  | Class x, Class y -> String.equal x y
  | Array x, Array y -> equal x y
  | ( ( Boolean | Byte | Short | Char | Int | Long | Float | Double | Class _ | Array _
      | Null_t | Void ),
      _ ) -> false

let is_primitive = function
  | Boolean | Byte | Short | Char | Int | Long | Float | Double -> true
  | Class _ | Array _ | Null_t | Void -> false

let is_numeric = function
  | Byte | Short | Char | Int | Long | Float | Double -> true
  | Boolean | Class _ | Array _ | Null_t | Void -> false

let is_integral = function
  | Byte | Short | Char | Int | Long -> true
  | Boolean | Float | Double | Class _ | Array _ | Null_t | Void -> false

let is_reference = function
  | Class _ | Array _ | Null_t -> true
  | Boolean | Byte | Short | Char | Int | Long | Float | Double | Void -> false

let string_class = "java.lang.String"
let object_class = "java.lang.Object"

let rec pp ppf = function
  | Boolean -> Format.pp_print_string ppf "boolean"
  | Byte -> Format.pp_print_string ppf "byte"
  | Short -> Format.pp_print_string ppf "short"
  | Char -> Format.pp_print_string ppf "char"
  | Int -> Format.pp_print_string ppf "int"
  | Long -> Format.pp_print_string ppf "long"
  | Float -> Format.pp_print_string ppf "float"
  | Double -> Format.pp_print_string ppf "double"
  | Class name -> Format.pp_print_string ppf name
  | Array elem -> Format.fprintf ppf "%a[]" pp elem
  | Null_t -> Format.pp_print_string ppf "<null>"
  | Void -> Format.pp_print_string ppf "void"

let to_string ty = Format.asprintf "%a" pp ty

(* -- descriptors --------------------------------------------------------- *)

let rec descriptor = function
  | Boolean -> "Z"
  | Byte -> "B"
  | Short -> "S"
  | Char -> "C"
  | Int -> "I"
  | Long -> "J"
  | Float -> "F"
  | Double -> "D"
  | Void -> "V"
  | Class name -> "L" ^ name ^ ";"
  | Array elem -> "[" ^ descriptor elem
  | Null_t -> invalid_arg "Jtype.descriptor: null type has no descriptor"

exception Bad_descriptor of string

let parse_descriptor_at s pos =
  let len = String.length s in
  let rec go pos =
    if pos >= len then raise (Bad_descriptor s);
    match s.[pos] with
    | 'Z' -> (Boolean, pos + 1)
    | 'B' -> (Byte, pos + 1)
    | 'S' -> (Short, pos + 1)
    | 'C' -> (Char, pos + 1)
    | 'I' -> (Int, pos + 1)
    | 'J' -> (Long, pos + 1)
    | 'F' -> (Float, pos + 1)
    | 'D' -> (Double, pos + 1)
    | 'V' -> (Void, pos + 1)
    | 'L' -> begin
      match String.index_from_opt s pos ';' with
      | None -> raise (Bad_descriptor s)
      | Some stop -> (Class (String.sub s (pos + 1) (stop - pos - 1)), stop + 1)
    end
    | '[' ->
      let elem, next = go (pos + 1) in
      (Array elem, next)
    | _ -> raise (Bad_descriptor s)
  in
  go pos

let of_descriptor s =
  let ty, stop = parse_descriptor_at s 0 in
  if stop <> String.length s then raise (Bad_descriptor s);
  ty

(* -- method signatures ---------------------------------------------------- *)

type msig = {
  params : t list;
  ret : t;
}

let msig_descriptor { params; ret } =
  "(" ^ String.concat "" (List.map descriptor params) ^ ")" ^ descriptor ret

let msig_of_descriptor s =
  if String.length s = 0 || s.[0] <> '(' then raise (Bad_descriptor s);
  let rec params pos acc =
    if pos >= String.length s then raise (Bad_descriptor s)
    else if s.[pos] = ')' then (List.rev acc, pos + 1)
    else
      let ty, next = parse_descriptor_at s pos in
      params next (ty :: acc)
  in
  let params, pos = params 1 [] in
  let ret, stop = parse_descriptor_at s pos in
  if stop <> String.length s then raise (Bad_descriptor s);
  { params; ret }

let pp_msig ppf { params; ret } =
  Format.fprintf ppf "(%a) : %a"
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ") pp)
    params pp ret

(* -- class info: the checker's view of an available class ----------------- *)

type field_info = {
  fi_name : string;
  fi_type : t;
  fi_static : bool;
  fi_final : bool;
  fi_public : bool;
}

type method_info = {
  mi_name : string; (* constructors use "<init>" *)
  mi_sig : msig;
  mi_static : bool;
  mi_public : bool;
  mi_abstract : bool;
  mi_native : bool;
}

type class_info = {
  ci_name : string;
  ci_interface : bool;
  ci_abstract : bool;
  ci_super : string option; (* [None] only for java.lang.Object *)
  ci_interfaces : string list;
  ci_fields : field_info list; (* declared only *)
  ci_methods : method_info list; (* declared only *)
}

type class_env = { find_class : string -> class_info option }
