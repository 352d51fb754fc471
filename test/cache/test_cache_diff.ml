(* The differential suite locking in getLink-memo transparency.

   Two complete hyper-programming systems execute the same seeded,
   randomized interleaving of compile / evolve / getLink / go /
   quarantine / gc+prune / stabilise / reopen operations:

   - CACHED: getLink memo on;
   - COLD: memo off.

   Every operation's observable result is rendered to a string, and the
   two observation logs must be byte-identical — including BrokenLink
   placeholders and quarantine degradation, which is exactly where a
   stale memo would first diverge.  At the end (and again after a final
   reopen) the two stores' full persistent fingerprints must match. *)

open Pstore
open Minijava
open Hyperprog
open Cache_util

let password = Registry.built_in_password

(* -- the operation alphabet ----------------------------------------------- *)

type op =
  | Compile of int * int (* class variant, body variant *)
  | Compile_hp
  | Get_link of int * int
  | Go
  | Evolve of int
  | Quarantine_mary
  | Unquarantine_mary
  | Gc_prune
  | Stabilise
  | Reopen

let gen_ops rng n =
  List.init n (fun _ ->
      match Random.State.int rng 14 with
      | 0 | 1 -> Compile (Random.State.int rng 3, Random.State.int rng 4)
      | 2 | 3 -> Compile_hp
      | 4 | 5 | 6 -> Get_link (Random.State.int rng 2, Random.State.int rng 5)
      | 7 -> Go
      | 8 -> Evolve (Random.State.int rng 2)
      | 9 -> Quarantine_mary
      | 10 -> Unquarantine_mary
      | 11 -> Gc_prune
      | 12 -> Stabilise
      | _ -> Reopen)

let source_variant c b =
  Printf.sprintf "public class D%d { public static int v() { return %d; } }" c b

let person_variant = function
  | 0 -> person_source
  | _ ->
    {|public class Person {
  private String name;
  private Person spouse;
  private int age;
  public Person(String n) { name = n; }
  public String getName() { return name; }
  public Person getSpouse() { return spouse; }
  public static void marry(Person a, Person b) { a.spouse = b; b.spouse = a; }
  public String toString() { return "Person(" + name + ")"; }
}|}

(* -- one system under test ------------------------------------------------ *)

type sys = {
  path : string;
  cached : bool;
  mutable store : Store.t;
  mutable vm : Rt.t;
  mutable mary : Oid.t;
}

let apply_caching sys = Registry.set_memo_enabled sys.vm sys.cached

let make_sys ~cached path =
  let store =
    Store.create ~config:{ Store.Config.default with Store.Config.backing = Some path } ()
  in
  let vm = Boot.boot_fresh store in
  Dynamic_compiler.install vm;
  let sys = { path; cached; store; vm; mary = Oid.of_int 0 } in
  apply_caching sys;
  let hp, _, mary = marry_example vm in
  Store.set_root store "hp" (Pvalue.Ref hp);
  ignore (Registry.add_hp vm ~password hp);
  sys.mary <- oid_of mary;
  sys

let reopen sys =
  Store.stabilise sys.store;
  Store.close sys.store;
  let store = Store.open_file sys.path in
  let vm = Boot.vm_for store in
  Dynamic_compiler.install vm;
  sys.store <- store;
  sys.vm <- vm;
  apply_caching sys

(* -- rendering observable results ----------------------------------------- *)

let render_exn = function
  | Rt.Jerror { jclass; message; _ } -> Printf.sprintf "jerror %s: %s" jclass message
  | Jcompiler.Compile_error e -> Format.asprintf "compile-error %a" Jcompiler.pp_error e
  | e -> Printf.sprintf "exn %s" (Printexc.to_string e)

let run_op sys op =
  let vm = sys.vm in
  match op with
  | Compile (c, b) -> begin
    match Dynamic_compiler.compile_strings vm ~names:[] [ source_variant c b ] with
    | rcs ->
      Printf.sprintf "compile D%d/%d -> %s" c b
        (String.concat "," (List.map (fun rc -> rc.Rt.rc_name) rcs))
    | exception e -> Printf.sprintf "compile D%d/%d -> %s" c b (render_exn e)
  end
  | Compile_hp -> begin
    match Store.root sys.store "hp" with
    | Some (Pvalue.Ref hp) -> begin
      match Dynamic_compiler.compile_hyper_programs vm [ hp ] with
      | rcs ->
        Printf.sprintf "compile-hp -> %s"
          (String.concat "," (List.map (fun rc -> rc.Rt.rc_name) rcs))
      | exception e -> Printf.sprintf "compile-hp -> %s" (render_exn e)
    end
    | _ -> "compile-hp -> no hp root"
  end
  | Get_link (hp, link) -> begin
    match Registry.get_link vm ~password ~hp ~link with
    | Pvalue.Ref oid ->
      (* render the target's class so BrokenLink placeholders are
         distinguishable from real HyperLinkHP instances *)
      Printf.sprintf "getLink %d %d -> @%d:%s" hp link (Oid.to_int oid)
        (Store.class_of sys.store oid)
    | v -> Printf.sprintf "getLink %d %d -> %s" hp link (Pvalue.to_string v)
    | exception e -> Printf.sprintf "getLink %d %d -> %s" hp link (render_exn e)
  end
  | Go -> begin
    match Store.root sys.store "hp" with
    | Some (Pvalue.Ref hp) -> begin
      match Dynamic_compiler.go vm hp ~argv:[] with
      | principal ->
        Printf.sprintf "go -> %s out=%S" principal (Rt.take_output vm)
      | exception e ->
        Printf.sprintf "go -> %s out=%S" (render_exn e) (Rt.take_output vm)
    end
    | _ -> "go -> no hp root"
  end
  | Evolve v -> begin
    match
      Evolution.evolve vm ~class_name:"Person" ~new_source:(person_variant v) ()
    with
    | r ->
      Printf.sprintf "evolve %d -> %d instances, affected %s" v
        r.Evolution.instances_updated
        (String.concat "," r.Evolution.affected_classes)
    | exception e -> Printf.sprintf "evolve %d -> %s" v (render_exn e)
  end
  | Quarantine_mary ->
    Store.quarantine_oid sys.store sys.mary "differential damage";
    Printf.sprintf "quarantine @%d" (Oid.to_int sys.mary)
  | Unquarantine_mary ->
    Store.clear_quarantine sys.store sys.mary;
    Printf.sprintf "unquarantine @%d" (Oid.to_int sys.mary)
  | Gc_prune ->
    let stats = Store.gc sys.store in
    let pruned = Registry.prune vm in
    Printf.sprintf "gc+prune -> swept %d, cleared %d slots, removed %d origins"
      stats.Gc.swept pruned.Registry.cleared_slots pruned.Registry.removed_origins
  | Stabilise ->
    Store.stabilise sys.store;
    Printf.sprintf "stabilise -> %d objects" (Store.size sys.store)
  | Reopen ->
    reopen sys;
    Printf.sprintf "reopen -> %d objects" (Store.size sys.store)

let final_fingerprint sys =
  Store.stabilise sys.store;
  fingerprint sys.store

(* -- the differential driver ---------------------------------------------- *)

let run_seed seed =
  let ops = gen_ops (Random.State.make [| seed |]) 40 in
  with_store_file (fun cached_path ->
      with_store_file (fun cold_path ->
          let cached = make_sys ~cached:true cached_path in
          let cold = make_sys ~cached:false cold_path in
          List.iteri
            (fun i op ->
              let a = run_op cached op in
              let b = run_op cold op in
              if a <> b then
                Alcotest.failf "seed %d, op %d diverged:\n  cached: %s\n  cold:   %s"
                  seed i a b)
            ops;
          check_output
            (Printf.sprintf "seed %d: persistent state matches" seed)
            (final_fingerprint cold) (final_fingerprint cached);
          (* a system's own caches must also be transparent across reopen *)
          reopen cached;
          reopen cold;
          check_output
            (Printf.sprintf "seed %d: state still matches after reopen" seed)
            (final_fingerprint cold) (final_fingerprint cached)))

let differential seed () = run_seed seed

let caches_actually_hit () =
  (* sanity for the whole exercise: a cached system running a realistic
     sequence must actually hit the memo, or the differential proves nothing *)
  with_store_file (fun path ->
      let sys = make_sys ~cached:true path in
      List.iter
        (fun op -> ignore (run_op sys op))
        [ Compile_hp; Compile_hp; Get_link (0, 0); Get_link (0, 0); Go; Go ];
      check_bool "getLink memo hit" true ((Registry.memo_stats sys.vm).Registry.hits > 0))

let suite =
  [
    test "cached == cold (seed 1)" (differential 1);
    test "cached == cold (seed 2)" (differential 2);
    test "cached == cold (seed 3)" (differential 3);
    test "cached == cold (seed 4)" (differential 4);
    test "the caches actually hit under the differential workload" caches_actually_hit;
  ]
