(* Store values.  These are the denotable values of the persistent store:
   Java-style primitives plus references to heap objects.  Java `char` is a
   16-bit code unit, so it is carried as an int with a range invariant. *)

type t =
  | Null
  | Bool of bool
  | Byte of int (* -128 .. 127 *)
  | Short of int (* -32768 .. 32767 *)
  | Char of int (* 0 .. 65535 *)
  | Int of int32
  | Long of int64
  | Float of float (* stored at double precision; rounded on arithmetic *)
  | Double of float
  | Ref of Oid.t

let is_primitive = function
  | Null | Ref _ -> false
  | Bool _ | Byte _ | Short _ | Char _ | Int _ | Long _ | Float _ | Double _ -> true

let byte n =
  if n < -128 || n > 127 then invalid_arg "Pvalue.byte: out of range";
  Byte n

let short n =
  if n < -32768 || n > 32767 then invalid_arg "Pvalue.short: out of range";
  Short n

let char n =
  if n < 0 || n > 0xffff then invalid_arg "Pvalue.char: out of range";
  Char n

let equal a b =
  match a, b with
  | Null, Null -> true
  | Bool x, Bool y -> Bool.equal x y
  | Byte x, Byte y | Short x, Short y | Char x, Char y -> Int.equal x y
  | Int x, Int y -> Int32.equal x y
  | Long x, Long y -> Int64.equal x y
  | Float x, Float y | Double x, Double y -> Float.equal x y
  | Ref x, Ref y -> Oid.equal x y
  | (Null | Bool _ | Byte _ | Short _ | Char _ | Int _ | Long _ | Float _ | Double _ | Ref _), _
    -> false

let pp ppf = function
  | Null -> Format.pp_print_string ppf "null"
  | Bool b -> Format.pp_print_bool ppf b
  | Byte n -> Format.fprintf ppf "%db" n
  | Short n -> Format.fprintf ppf "%ds" n
  | Char n ->
    if n >= 32 && n < 127 then Format.fprintf ppf "'%c'" (Char.chr n)
    else Format.fprintf ppf "'\\u%04x'" n
  | Int n -> Format.fprintf ppf "%ld" n
  | Long n -> Format.fprintf ppf "%LdL" n
  | Float f -> Format.fprintf ppf "%gf" f
  | Double f -> Format.fprintf ppf "%g" f
  | Ref oid -> Oid.pp ppf oid

let to_string v = Format.asprintf "%a" pp v

let encode w v =
  let open Codec in
  match v with
  | Null -> put_u8 w 0
  | Bool b -> put_u8 w 1; put_bool w b
  | Byte n -> put_u8 w 2; put_u8 w (n land 0xff)
  | Short n -> put_u8 w 3; put_i32 w (Int32.of_int n)
  | Char n -> put_u8 w 4; put_i32 w (Int32.of_int n)
  | Int n -> put_u8 w 5; put_i32 w n
  | Long n -> put_u8 w 6; put_i64 w n
  | Float f -> put_u8 w 7; put_f64 w f
  | Double f -> put_u8 w 8; put_f64 w f
  | Ref oid -> put_u8 w 9; put_i64 w (Int64.of_int (Oid.to_int oid))

let decode r =
  let open Codec in
  match get_u8 r with
  | 0 -> Null
  | 1 -> Bool (get_bool r)
  | 2 ->
    let n = get_u8 r in
    Byte (if n > 127 then n - 256 else n)
  | 3 -> Short (Int32.to_int (get_i32 r))
  | 4 -> Char (Int32.to_int (get_i32 r))
  | 5 -> Int (get_i32 r)
  | 6 -> Long (get_i64 r)
  | 7 -> Float (get_f64 r)
  | 8 -> Double (get_f64 r)
  | 9 -> Ref (Oid.of_int (Int64.to_int (get_i64 r)))
  | n -> Codec.decode_error "Pvalue.decode: invalid tag %d" n
