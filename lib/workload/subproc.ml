(* Black-box subprocess driving for the end-to-end and server suites.

   Everything here treats bin/hpjava as an opaque executable: spawn it
   with argv, optionally feed it a stdin script, capture stdout/stderr
   and the wait status, and time the whole thing end to end (process
   start to exit — the latency a scripting user actually experiences).
   No store, compiler or shell logic is linked in; a caller can only
   observe what a real user could. *)

type result = {
  argv : string list;
  status : Unix.process_status;
  stdout : string;
  stderr : string;
  elapsed_s : float;
}

let exit_code r = match r.status with Unix.WEXITED n -> Some n | _ -> None
let ok r = r.status = Unix.WEXITED 0
let signalled r = match r.status with Unix.WSIGNALED s -> Some s | _ -> None

let pp_status ppf = function
  | Unix.WEXITED n -> Format.fprintf ppf "exited %d" n
  | Unix.WSIGNALED s -> Format.fprintf ppf "killed by signal %d" s
  | Unix.WSTOPPED s -> Format.fprintf ppf "stopped by signal %d" s

let describe r =
  Format.asprintf "`%s` %a\n-- stdout --\n%s-- stderr --\n%s"
    (String.concat " " r.argv) pp_status r.status r.stdout r.stderr

(* -- locating the binary --------------------------------------------------- *)

(* Tests and bench rules run from their own dune workdirs; direct `dune
   exec` runs from the project root.  HPJAVA_BIN always wins. *)
let locate () =
  let absolute p = if Filename.is_relative p then Filename.concat (Sys.getcwd ()) p else p in
  match Sys.getenv_opt "HPJAVA_BIN" with
  | Some p when Sys.file_exists p -> absolute p
  | Some p -> failwith ("HPJAVA_BIN points at " ^ p ^ ", which does not exist")
  | None -> begin
    let candidates =
      [
        "../../bin/hpjava.exe";
        "../bin/hpjava.exe";
        "bin/hpjava.exe";
        "_build/default/bin/hpjava.exe";
      ]
    in
    match List.find_opt Sys.file_exists candidates with
    | Some p -> absolute p
    | None ->
      failwith
        "hpjava binary not found: set HPJAVA_BIN or run from a dune rule that depends on \
         bin/hpjava.exe"
  end

(* -- running ---------------------------------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path data =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc data)

let environment_with extra =
  let shadowed kv =
    List.exists
      (fun (k, _) ->
        let pfx = k ^ "=" in
        String.length kv >= String.length pfx && String.sub kv 0 (String.length pfx) = pfx)
      extra
  in
  let base = Array.to_list (Unix.environment ()) |> List.filter (fun kv -> not (shadowed kv)) in
  Array.of_list (base @ List.map (fun (k, v) -> k ^ "=" ^ v) extra)

(* Run [bin args], feeding [stdin_text] (default: empty input) and
   capturing both output streams via temp files — no pipe-buffer
   deadlocks, whatever the child prints.  A child that outlives
   [timeout_s] is SIGKILLed and reported with its signal status, so a
   hung store can never hang the harness. *)
let run ?(env = []) ?stdin_text ?(timeout_s = 120.) ~bin args =
  let tmp suffix = Filename.temp_file "hpjava_sub" suffix in
  let out_f = tmp ".out" and err_f = tmp ".err" and in_f = tmp ".in" in
  write_file in_f (Option.value stdin_text ~default:"");
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) [ out_f; err_f; in_f ])
  @@ fun () ->
  let fd_in = Unix.openfile in_f [ Unix.O_RDONLY ] 0 in
  let fd_out = Unix.openfile out_f [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let fd_err = Unix.openfile err_f [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let t0 = Unix.gettimeofday () in
  let pid =
    Unix.create_process_env bin
      (Array.of_list (bin :: args))
      (environment_with env) fd_in fd_out fd_err
  in
  List.iter Unix.close [ fd_in; fd_out; fd_err ];
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
      if Unix.gettimeofday () -. t0 > timeout_s then begin
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        snd (Unix.waitpid [] pid)
      end
      else begin
        Unix.sleepf 0.001;
        wait ()
      end
    | _, status -> status
  in
  let status = wait () in
  let elapsed_s = Unix.gettimeofday () -. t0 in
  { argv = bin :: args; status; stdout = read_file out_f; stderr = read_file err_f; elapsed_s }

let contains haystack needle =
  let n = String.length needle in
  let rec go i =
    if i + n > String.length haystack then false
    else String.sub haystack i n = needle || go (i + 1)
  in
  go 0

(* -- background processes ---------------------------------------------------

   Long-lived children (`hpjava serve`) and coordinated concurrent
   clients (`hpjava connect` with a piped stdin the test feeds
   step-by-step).  Output still goes through temp files, so a noisy
   child cannot deadlock the harness, and the files double as live
   transcripts: [wait_output] polls them to sequence multi-client
   interleavings deterministically. *)

type proc = {
  pid : int;
  p_argv : string list;
  stdin_fd : Unix.file_descr option;  (* Some = piped stdin, still open *)
  out_file : string;
  err_file : string;
  started : float;
  mutable reaped : Unix.process_status option;
}

let spawn ?(env = []) ?(pipe_stdin = false) ~bin args =
  let tmp suffix = Filename.temp_file "hpjava_bg" suffix in
  let out_file = tmp ".out" and err_file = tmp ".err" in
  let fd_out = Unix.openfile out_file [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let fd_err = Unix.openfile err_file [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let stdin_r, stdin_w =
    if pipe_stdin then begin
      let r, w = Unix.pipe () in
      Unix.set_close_on_exec w;
      (r, Some w)
    end
    else (Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0, None)
  in
  let pid =
    Unix.create_process_env bin
      (Array.of_list (bin :: args))
      (environment_with env) stdin_r fd_out fd_err
  in
  List.iter Unix.close [ stdin_r; fd_out; fd_err ];
  {
    pid;
    p_argv = bin :: args;
    stdin_fd = stdin_w;
    out_file;
    err_file;
    started = Unix.gettimeofday ();
    reaped = None;
  }

let send proc text =
  match proc.stdin_fd with
  | None -> invalid_arg "Subproc.send: process was not spawned with ~pipe_stdin:true"
  | Some fd ->
    let b = Bytes.of_string text in
    let rec go off =
      if off < Bytes.length b then
        match Unix.write fd b off (Bytes.length b - off) with
        | n -> go (off + n)
        | exception Unix.Unix_error (Unix.EPIPE, _, _) -> ()
    in
    go 0

let close_stdin proc =
  match proc.stdin_fd with
  | Some fd -> ( try Unix.close fd with Unix.Unix_error _ -> ())
  | None -> ()

let alive proc =
  proc.reaped = None
  &&
  match Unix.waitpid [ Unix.WNOHANG ] proc.pid with
  | 0, _ -> true
  | _, status ->
    proc.reaped <- Some status;
    false

let proc_output proc = read_file proc.out_file
let proc_errors proc = read_file proc.err_file

(* Poll the live transcript for a marker — the deterministic way to
   sequence a multi-client interleaving (client A's commit must be
   answered before client B's is sent). *)
let wait_output ?(timeout_s = 30.) proc needle =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    if contains (proc_output proc) needle then true
    else if Unix.gettimeofday () > deadline then false
    else if (not (alive proc)) && not (contains (proc_output proc) needle) then false
    else begin
      Unix.sleepf 0.005;
      go ()
    end
  in
  go ()

(* Wait for exit (SIGKILL after [timeout_s]) and hand back the same
   result record [run] produces.  Reaps at most once; safe after
   [alive] already reaped. *)
let collect ?(timeout_s = 120.) proc =
  close_stdin proc;
  let status =
    match proc.reaped with
    | Some status -> status
    | None ->
      let deadline = Unix.gettimeofday () +. timeout_s in
      let rec wait () =
        match Unix.waitpid [ Unix.WNOHANG ] proc.pid with
        | 0, _ ->
          if Unix.gettimeofday () > deadline then begin
            (try Unix.kill proc.pid Sys.sigkill with Unix.Unix_error _ -> ());
            snd (Unix.waitpid [] proc.pid)
          end
          else begin
            Unix.sleepf 0.002;
            wait ()
          end
        | _, status -> status
      in
      let status = wait () in
      proc.reaped <- Some status;
      status
  in
  let result =
    {
      argv = proc.p_argv;
      status;
      stdout = proc_output proc;
      stderr = proc_errors proc;
      elapsed_s = Unix.gettimeofday () -. proc.started;
    }
  in
  List.iter
    (fun f -> try Sys.remove f with Sys_error _ -> ())
    [ proc.out_file; proc.err_file ];
  result

let terminate ?(signal = Sys.sigterm) ?timeout_s proc =
  if proc.reaped = None then ( try Unix.kill proc.pid signal with Unix.Unix_error _ -> ());
  collect ?timeout_s proc
