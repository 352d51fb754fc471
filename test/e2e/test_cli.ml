(* Exit-code audit of the hpjava command surface.

   Black-box contract the macro harness (and any script) relies on:
   every failure path exits nonzero with a one-line stderr message;
   read-only subcommands never invent a store for a missing path
   (create-on-missing is init/compile only); success paths exit zero. *)

open E2e_util

let person_source =
  "public class Person {\n\
  \  private String name;\n\
  \  private Person spouse;\n\
  \  public Person(String n) { name = n; }\n\
  \  public static void marry(Person a, Person b) { a.spouse = b; b.spouse = a; }\n\
  \  public String toString() { return \"Person(\" + name + \")\"; }\n\
   }\n"

(* -- missing store: error, not silent creation ----------------------------- *)

let missing_store_is_an_error () =
  with_dir @@ fun dir ->
  let store = Filename.concat dir "absent.hpj" in
  List.iter
    (fun args ->
      let r = hpjava args in
      expect_fail ~stderr_has:"no store" r;
      check_bool
        (Printf.sprintf "%s must not create the store" (String.concat " " args))
        false (Sys.file_exists store))
    [
      [ "census"; store ];
      [ "roots"; store ];
      [ "browse"; store ];
      [ "export-html"; store; Filename.concat dir "html" ];
      [ "check"; store ];
      [ "gc"; store ];
      [ "run"; store; "Person" ];
      [ "new"; store; "Person"; "r"; "x" ];
      [ "print-hp"; store; "hp" ];
      [ "source"; store; "Person" ];
      [ "shell"; store ];
    ]

let create_on_missing_only_for_init_and_compile () =
  with_dir @@ fun dir ->
  let store = Filename.concat dir "a.hpj" in
  expect_ok (hpjava [ "init"; store ]);
  check_bool "init created the store" true (Sys.file_exists store);
  let store2 = Filename.concat dir "b.hpj" in
  let src = write_src ~dir "Person.java" person_source in
  expect_ok (hpjava [ "compile"; store2; src ]);
  check_bool "compile created the store" true (Sys.file_exists store2)

(* -- failure paths exit nonzero with one-line messages --------------------- *)

let compile_error_exits_nonzero () =
  with_store @@ fun ~dir ~store ->
  let bad = write_src ~dir "Bad.java" "public class Bad { int" in
  expect_fail ~stderr_has:"compile error" (hpjava [ "compile"; store; bad ])

let run_unknown_class_exits_nonzero () =
  with_store @@ fun ~dir:_ ~store ->
  expect_fail ~stderr_has:"NoClassDefFoundError" (hpjava [ "run"; store; "Nowhere" ])

let browse_unknown_root_exits_nonzero () =
  with_store @@ fun ~dir:_ ~store ->
  expect_fail ~stderr_has:"no root" (hpjava [ "browse"; store; "--root"; "nope" ])

let print_hp_non_hyper_root_exits_nonzero () =
  with_store @@ fun ~dir:_ ~store ->
  expect_fail ~stderr_has:"hyper-program" (hpjava [ "print-hp"; store; "nope" ])

let source_unknown_class_exits_nonzero () =
  with_store @@ fun ~dir:_ ~store ->
  expect_fail ~stderr_has:"not loaded" (hpjava [ "source"; store; "Nowhere" ])

let bad_subcommand_and_args_exit_nonzero () =
  with_store @@ fun ~dir:_ ~store ->
  expect_fail (hpjava [ "frobnicate"; store ]);
  expect_fail (hpjava [ "compile"; store ]) (* missing FILE *);
  expect_fail (hpjava [ "compile"; store; "/nonexistent/X.java" ]);
  expect_fail (hpjava [ "init" ]) (* missing STORE *)

let corrupt_store_is_one_line_error () =
  with_dir @@ fun dir ->
  let store = Filename.concat dir "bad.hpj" in
  write_file store "this is not an image";
  let r = hpjava [ "census"; store ] in
  expect_fail r;
  (* one line, no backtrace dump *)
  let lines =
    String.split_on_char '\n' (String.trim r.Test_support.Subproc.stderr)
    |> List.filter (fun l -> String.trim l <> "")
  in
  check_int "single-line stderr" 1 (List.length lines)

(* -- a store with an unreadable link record ----------------------------------

   The store is built in-process (there is no command that quarantines a
   chosen record), then only the binary is driven. *)

let with_unreadable_link f =
  with_store @@ fun ~dir ~store ->
  ignore (damage_marry store ~damaged:`Link0);
  f ~dir ~store

let export_html_names_unreadable_link () =
  with_unreadable_link @@ fun ~dir ~store ->
  let out = Filename.concat dir "html" in
  expect_ok (hpjava [ "export-html"; store; out ]);
  let page = read_file (Filename.concat out "MarryExample.html") in
  check_bool "names the unreadable link" true (contains page "unreadable hyper-link 0");
  check_bool "link 1 shown" true (contains page ">vangelis</a>");
  check_bool "link 2 shown" true (contains page ">mary</a>")

let print_hp_refuses_unreadable_link () =
  with_unreadable_link @@ fun ~dir:_ ~store ->
  let r = hpjava [ "print-hp"; store; "marry" ] in
  expect_fail ~stderr_has:"hyper-link 0 cannot be read" r;
  check_bool "exit 1" true (Test_support.Subproc.exit_code r = Some 1);
  check_int "single-line stderr" 1
    (List.length (String.split_on_char '\n' (String.trim r.Test_support.Subproc.stderr)))

(* -- evolve round trip through the CLI ------------------------------------- *)

let evolve_via_cli () =
  with_store @@ fun ~dir ~store ->
  let src = write_src ~dir "Person.java" person_source in
  expect_ok (hpjava [ "compile"; store; src ]);
  expect_ok (hpjava [ "new"; store; "Person"; "alice"; "alice" ]);
  let v2 =
    write_src ~dir "Person2.java"
      "public class Person {\n\
      \  private String name;\n\
      \  private Person spouse;\n\
      \  private String note;\n\
      \  public Person(String n) { name = n; }\n\
      \  public static void marry(Person a, Person b) { a.spouse = b; b.spouse = a; }\n\
      \  public String toString() { return \"P2(\" + name + \")\"; }\n\
       }\n"
  in
  let r = hpjava [ "evolve"; store; "Person"; v2 ] in
  expect_ok r;
  expect_stdout_has r "evolved Person";
  (* evolution failure: evolving a class that does not exist *)
  expect_fail ~stderr_has:"evolution failed" (hpjava [ "evolve"; store; "Ghost"; v2 ]);
  (* the store survived both: full integrity, instance reconstructed *)
  let check = hpjava [ "check"; store ] in
  expect_ok check;
  expect_stdout_has check "integrity ok";
  let census = hpjava [ "census"; store ] in
  expect_ok census;
  expect_stdout_has census "Person"

(* -- gc prunes the registry, legacy compile-cache blobs included -------- *)

let gc_removes_legacy_compile_cache_blobs () =
  with_store @@ fun ~dir:_ ~store ->
  let legacy = [ ("hyper.ccache:0123abcd", "stale batch"); ("hyper.ccache.index", "0123abcd") ] in
  let s = Pstore.Store.open_file store in
  List.iter (fun (k, v) -> Pstore.Store.Session.set_blob (Pstore.Store.default_session s) k v) legacy;
  Pstore.Store.stabilise s;
  Pstore.Store.close s;
  expect_ok (hpjava [ "gc"; store ]);
  let s = Pstore.Store.open_file store in
  List.iter
    (fun (k, _) -> check_bool (k ^ " removed") true (Pstore.Store.Session.blob (Pstore.Store.default_session s) k = None))
    legacy;
  Pstore.Store.close s;
  let check = hpjava [ "check"; store ] in
  expect_ok check;
  expect_stdout_has check "integrity ok"

(* -- each unit's source is stored once -------------------------------------- *)

(* Class blobs name their compilation unit's text by key instead of each
   carrying a copy, so a fresh image holds the runtime library's five
   unit texts once (about 60 kB), not once per class (about 520 kB). *)
let fresh_image_stores_unit_sources_once () =
  with_dir @@ fun dir ->
  let store = Filename.concat dir "fresh.hpj" in
  expect_ok (hpjava [ "init"; store ]);
  let size = file_size store in
  if size > 64 * 1024 then Alcotest.failf "a fresh image is %d bytes, over 64 KiB" size;
  let r = hpjava [ "source"; store; "java.lang.String" ] in
  expect_ok r;
  expect_stdout_has r "package java.lang;";
  expect_stdout_has r "class String"

(* -- sharded init: persisted shard count, per-shard check breakdown ------- *)

let sharded_init_and_check () =
  with_dir @@ fun dir ->
  let store = Filename.concat dir "sharded.hpj" in
  let init = hpjava [ "init"; "--shards"; "4"; store ] in
  expect_ok init;
  expect_stdout_has init "4 shards";
  let src = write_src ~dir "Person.java" person_source in
  expect_ok (hpjava [ "compile"; store; src ]);
  expect_ok (hpjava [ "new"; store; "Person"; "alice"; "alice" ]);
  (* check keeps its exit-code contract and adds the per-shard lines;
     a fresh process sees the shard count persisted in the manifest *)
  let check = hpjava [ "check"; store ] in
  expect_ok check;
  expect_stdout_has check "integrity ok";
  expect_stdout_has check "shard 0 (healthy):";
  expect_stdout_has check "shard 3 (healthy):";
  (* a flat store must NOT suddenly grow shard lines *)
  let flat = Filename.concat dir "flat.hpj" in
  expect_ok (hpjava [ "init"; flat ]);
  let fcheck = hpjava [ "check"; flat ] in
  expect_ok fcheck;
  expect_stdout_lacks fcheck "shard 0 (healthy):";
  (* --shards 0 is a usage error and creates nothing *)
  let bad = Filename.concat dir "bad.hpj" in
  expect_fail (hpjava [ "init"; "--shards"; "0"; bad ]);
  check_bool "rejected init created no store" false (Sys.file_exists bad)

(* Whole-shard file loss must degrade, not destroy: check reports the
   offline shard and exits 1; the shell drops to maintenance mode, where
   `repair all` restores service and boots the session; afterwards the
   lost objects sit in quarantine (non-fatal) and check exits 0. *)
let offline_shard_maintenance_and_repair () =
  with_dir @@ fun dir ->
  let store = Filename.concat dir "frag.hpj" in
  expect_ok (hpjava [ "init"; "--shards"; "4"; store ]);
  let src = write_src ~dir "Person.java" person_source in
  expect_ok (hpjava [ "compile"; store; src ]);
  List.iter
    (fun n -> expect_ok (hpjava [ "new"; store; "Person"; n; n ]))
    [ "alice"; "bob"; "carol"; "dave"; "erin"; "frank" ];
  expect_ok (hpjava [ "check"; store ]);
  (* lose one whole shard: image + journal *)
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f ->
         String.length f >= 11 && String.sub f 0 11 = "frag.hpj.s2")
  |> List.iter (fun f -> Sys.remove (Filename.concat dir f));
  let broken = hpjava [ "check"; store ] in
  expect_fail broken;
  expect_stdout_has broken "shard 2 (offline):";
  expect_stdout_has broken "unhealthy shards: 1";
  let repair =
    hpjava ~stdin_text:"health\nrepair all\nhealth\nquit\n" [ "shell"; store ]
  in
  expect_ok repair;
  expect_stdout_has repair "entering maintenance mode";
  expect_stdout_has repair "shard 2 repaired (offline):";
  expect_stdout_has repair "store healthy again; booting the session";
  expect_stdout_has repair "unhealthy shards: 0";
  let fixed = hpjava [ "check"; store ] in
  expect_ok fixed;
  expect_stdout_has fixed "integrity ok";
  expect_stdout_has fixed "shard 2 (healthy):"

let suite =
  [
    test "missing store is a nonzero-exit error (no silent creation)" missing_store_is_an_error;
    test "create-on-missing kept for init and compile" create_on_missing_only_for_init_and_compile;
    test "compile error exits nonzero" compile_error_exits_nonzero;
    test "run of unknown class exits nonzero" run_unknown_class_exits_nonzero;
    test "browse of unknown root exits nonzero" browse_unknown_root_exits_nonzero;
    test "print-hp of non-hyper root exits nonzero" print_hp_non_hyper_root_exits_nonzero;
    test "source of unknown class exits nonzero" source_unknown_class_exits_nonzero;
    test "bad subcommands and missing args exit nonzero" bad_subcommand_and_args_exit_nonzero;
    test "corrupt store reports one line on stderr" corrupt_store_is_one_line_error;
    test "evolve succeeds and fails with correct exit codes" evolve_via_cli;
    test "sharded init persists and check prints per-shard lines" sharded_init_and_check;
    test "offline shard: maintenance mode, repair all, healthy check"
      offline_shard_maintenance_and_repair;
    test "gc removes legacy compile-cache blobs" gc_removes_legacy_compile_cache_blobs;
    test "a fresh image stores each unit's source once" fresh_image_stores_unit_sources_once;
    test "export-html names an unreadable link and exits 0" export_html_names_unreadable_link;
    test "print-hp refuses an unreadable link in one line, exit 1"
      print_hp_refuses_unreadable_link;
  ]
