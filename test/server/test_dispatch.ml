(* In-process dispatch: a wire request runs through the same layers as
   the shell and the Go button, so its work shows in the store's
   counters like theirs does. *)

open Server_util
open Pstore
open Minijava
open Hyperprog

let request c req =
  match Protocol.decode_response (Server.Dispatch.handle c (Protocol.encode_request req)) with
  | Ok resp -> resp
  | Error msg -> Alcotest.failf "undecodable response: %s" msg

let wire_compile_is_counted () =
  with_dir ~prefix:"dispatch" @@ fun dir ->
  let backing = Some (Filename.concat dir "s") in
  let store = Store.create ~config:{ Store.Config.default with Store.Config.backing } () in
  let vm = Boot.boot_fresh store in
  Dynamic_compiler.install vm;
  let c = Server.Dispatch.create ~vm ~store ~name:"test" in
  let password = Registry.built_in_password in
  (match request c (Protocol.Hello { version = Protocol.version; password }) with
  | Protocol.Hello_ok _ -> ()
  | other -> Alcotest.failf "hello: %s" (Protocol.describe_response other));
  let obs = Store.obs store in
  let before = Obs.count obs Obs.Compile in
  let source = "public class Wc { public static int v() { return 1; } }" in
  (match request c (Protocol.Compile { source }) with
  | Protocol.Ok_text text -> check_bool "the answer names the class" true (contains text "Wc")
  | other -> Alcotest.failf "compile: %s" (Protocol.describe_response other));
  check_int "one wire compile is one counted compile" (before + 1) (Obs.count obs Obs.Compile);
  (match request c (Protocol.Compile { source = "public class Bad { int x = ; }" }) with
  | Protocol.Refused { code; _ } ->
    check_output "a bad source is a compile refusal" Protocol.code_compile code
  | other -> Alcotest.failf "bad compile: %s" (Protocol.describe_response other));
  check_int "a refused compile is counted too" (before + 2) (Obs.count obs Obs.Compile)

(* Every connection holds a snapshot session, which pins the object
   graph, so a wire compile that redefines a loaded class is refused.
   The refusal must leave the VM's class, the store's instances and the
   class blob exactly as they were. *)
let refused_redefinition_changes_nothing () =
  with_dir ~prefix:"dispatch" @@ fun dir ->
  let backing = Some (Filename.concat dir "s") in
  let store = Store.create ~config:{ Store.Config.default with Store.Config.backing } () in
  let vm = Boot.boot_fresh store in
  Dynamic_compiler.install vm;
  let getter = "public static int get(Pt p) { return p.a; }" in
  ignore (Jcompiler.compile_and_load vm [ "public class Pt { public int a; " ^ getter ^ " }" ]);
  let pt = Vm.new_instance vm ~cls:"Pt" ~desc:"()V" [] in
  let oid = match pt with Pvalue.Ref o -> o | _ -> Alcotest.fail "Pt is not an object" in
  Store.Session.set_field (Store.default_session store) oid (Rt.field_slot vm "Pt" "a") (Pvalue.Int 7l);
  Store.Session.set_root (Store.default_session store) "pt" pt;
  Store.stabilise store;
  let blob = Store.Session.blob (Store.default_session store) "minijava.class:Pt" in
  let c = Server.Dispatch.create ~vm ~store ~name:"test" in
  let password = Registry.built_in_password in
  (match request c (Protocol.Hello { version = Protocol.version; password }) with
  | Protocol.Hello_ok _ -> ()
  | other -> Alcotest.failf "hello: %s" (Protocol.describe_response other));
  (match
     request c (Protocol.Compile { source = "public class Pt { public int b; public int a; " ^ getter ^ " }" })
   with
  | Protocol.Refused { message; _ } ->
    check_bool "refused because sessions pin the graph" true (contains message "snapshot sessions")
  | other -> Alcotest.failf "redefinition: %s" (Protocol.describe_response other));
  check_int "the VM keeps the old layout" 1 (Array.length (Rt.get_class vm "Pt").Rt.rc_layout);
  check_bool "the instance still reads 7" true
    (Pvalue.equal (Pvalue.Int 7l) (Vm.call_static vm ~cls:"Pt" ~name:"get" ~desc:"(LPt;)I" [ pt ]));
  check_bool "the class blob is unchanged" true (Store.Session.blob (Store.default_session store) "minijava.class:Pt" = blob)

(* An identical source is not a redefinition: the wire compile succeeds
   while the connection's session is open, and changes nothing. *)
let identical_compile_is_answered () =
  with_dir ~prefix:"dispatch" @@ fun dir ->
  let backing = Some (Filename.concat dir "s") in
  let store = Store.create ~config:{ Store.Config.default with Store.Config.backing } () in
  let vm = Boot.boot_fresh store in
  Dynamic_compiler.install vm;
  let source = "public class Pt { public int a; public static int get(Pt p) { return p.a; } }" in
  ignore (Jcompiler.compile_and_load vm [ source ]);
  let pt = Vm.new_instance vm ~cls:"Pt" ~desc:"()V" [] in
  let oid = match pt with Pvalue.Ref o -> o | _ -> Alcotest.fail "Pt is not an object" in
  Store.Session.set_field (Store.default_session store) oid (Rt.field_slot vm "Pt" "a") (Pvalue.Int 7l);
  Store.Session.set_root (Store.default_session store) "pt" pt;
  Store.stabilise store;
  let blob = Store.Session.blob (Store.default_session store) "minijava.class:Pt" in
  let c = Server.Dispatch.create ~vm ~store ~name:"test" in
  let password = Registry.built_in_password in
  (match request c (Protocol.Hello { version = Protocol.version; password }) with
  | Protocol.Hello_ok _ -> ()
  | other -> Alcotest.failf "hello: %s" (Protocol.describe_response other));
  (match request c (Protocol.Compile { source }) with
  | Protocol.Ok_text text -> check_output "the answer" "compiled Pt" text
  | other -> Alcotest.failf "identical compile: %s" (Protocol.describe_response other));
  check_bool "the instance still reads 7" true
    (Pvalue.equal (Pvalue.Int 7l) (Vm.call_static vm ~cls:"Pt" ~name:"get" ~desc:"(LPt;)I" [ pt ]));
  check_bool "the class blob is unchanged" true (Store.Session.blob (Store.default_session store) "minijava.class:Pt" = blob)

let suite =
  ( "dispatch",
    [
      test "wire compiles are counted, refused ones too" wire_compile_is_counted;
      test "a refused redefinition leaves the class and its instances intact"
        refused_redefinition_changes_nothing;
      test "an identical wire compile is answered while a session is open"
        identical_compile_is_answered;
    ] )
