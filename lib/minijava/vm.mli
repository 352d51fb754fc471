(** The MiniJava bytecode interpreter.

    Numeric conventions: byte/short/char/int all live in the "int kind";
    arithmetic accepts any of them and produces [Int], with [Trunc]
    wrapping values back into byte/short/char storage ranges.  Float
    arithmetic is rounded to 32-bit precision after every operation.
    Runtime errors surface as {!Rt.Jerror} with Java exception class
    names. *)

open Pstore

(** {1 Value coercions} *)

val as_int : Pvalue.t -> int32
(** Accepts [Int], [Byte], [Short] and [Char] values. *)

val java_string_of_double : float -> string
val string_of_char_code : int -> string
(** UTF-8 encoding of a UTF-16 code unit. *)

(** {1 Execution} *)

exception Jthrow of Pvalue.t
(** A Java exception in flight, carrying the Throwable store object.  It
    unwinds across frames; the public entry points convert an uncaught
    one into {!Rt.Jerror}. *)

val call_method : Rt.t -> Rt.rmethod -> Pvalue.t list -> Pvalue.t
(** Invoke a method (receiver first for instance methods); runs natives
    through the VM's native registry.  Returns [Null] for void. *)

val to_string : Rt.t -> Pvalue.t -> string
(** The string form of any value; objects dispatch [toString()]. *)

val call_static : Rt.t -> cls:string -> name:string -> desc:string -> Pvalue.t list -> Pvalue.t
val call_virtual : Rt.t -> recv:Pvalue.t -> name:string -> desc:string -> Pvalue.t list -> Pvalue.t

val new_instance : Rt.t -> cls:string -> desc:string -> Pvalue.t list -> Pvalue.t
(** Allocate and run the constructor with the given descriptor. *)

val run_main : Rt.t -> cls:string -> string list -> unit
(** Run [public static void main(String[] args)]. *)
