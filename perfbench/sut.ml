(* The system under test as processes: spawning the CLI's daemons,
   reading their CPU and memory from /proc, and tearing everything down
   on every exit path.

   Each run works in a fresh directory [<base>/<pid>-<stamp>] and
   chdirs into it, so socket paths stay short and relative however deep
   the checkout sits.  The directory records the pids it spawned; a
   later run sweeps directories whose owner died (SIGKILL leaves no
   chance to clean up) and kills their orphaned daemons first. *)

exception Interrupted of int

let children : (int * string) list ref = ref []
let run_dir = ref None
let home = Sys.getcwd ()

(* ----------------------------- /proc -------------------------------- *)

(* Read in chunks: /proc files report a length of 0. *)
let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let b = Buffer.create 1024 and chunk = Bytes.create 4096 in
      let rec go () =
        let n = input ic chunk 0 4096 in
        if n > 0 then (
          Buffer.add_subbytes b chunk 0 n;
          go ())
      in
      go ();
      Buffer.contents b)

let clk_tck = 100.

(* User plus system CPU seconds of a process, its finished threads
   included (fields 14 and 15 of /proc/<pid>/stat, after the comm). *)
let cpu_s pid =
  let s = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  let comm_end = String.rindex s ')' + 2 in
  let rest = String.sub s comm_end (String.length s - comm_end) in
  let f = Array.of_list (String.split_on_char ' ' rest) in
  (float_of_string f.(11) +. float_of_string f.(12)) /. clk_tck

let status_kb pid field =
  let prefix = field ^ ":" in
  let lines = String.split_on_char '\n' (read_file (Printf.sprintf "/proc/%d/status" pid)) in
  let line = List.find (String.starts_with ~prefix) lines in
  let plen = String.length prefix in
  Scanf.sscanf (String.sub line plen (String.length line - plen)) " %f" Fun.id

(* Peak resident set, MB. *)
let peak_rss_mb pid = status_kb pid "VmHWM" /. 1024.
let self_peak_rss_mb () = status_kb (Unix.getpid ()) "VmHWM" /. 1024.

let alive pid = Sys.file_exists (Printf.sprintf "/proc/%d" pid)

(* The machine's CPU seconds so far, over all CPUs, from the first line
   of /proc/stat: [(busy, steal)], busy being user + nice + system +
   irq + softirq.  Steal is time a virtual CPU was ready to run while
   the host ran something else. *)
let host_cpu () =
  let line = List.hd (String.split_on_char '\n' (read_file "/proc/stat")) in
  let f =
    Array.of_list (List.filter_map float_of_string_opt (String.split_on_char ' ' line))
  in
  ((f.(0) +. f.(1) +. f.(2) +. f.(5) +. f.(6)) /. clk_tck, f.(7) /. clk_tck)

(* The share of the CPU time the machine asked for that the host
   granted between two [host_cpu] readings: 1 when nothing was
   stolen. *)
let granted (b0, s0) (b1, s1) =
  let busy = b1 -. b0 and steal = s1 -. s0 in
  if busy +. steal <= 0. then 1. else busy /. (busy +. steal)

(* --------------------------- file system ---------------------------- *)

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let pids_file dir = Filename.concat dir "pids"

let record_pid pid =
  match !run_dir with
  | None -> ()
  | Some dir ->
    let oc = open_out_gen [ Open_append; Open_creat ] 0o644 (pids_file dir) in
    Printf.fprintf oc "%d\n" pid;
    close_out oc

let is_daemon cli pid =
  match read_file (Printf.sprintf "/proc/%d/cmdline" pid) with
  | cmd -> String.starts_with ~prefix:cli cmd
  | exception Sys_error _ -> false

(* Remove run directories whose owning benchmark is gone, killing any
   daemon they left behind. *)
let sweep ~cli base =
  if Sys.file_exists base then
    Array.iter
      (fun entry ->
        let dir = Filename.concat base entry in
        let owner = try int_of_string (List.hd (String.split_on_char '-' entry)) with _ -> -1 in
        if owner < 0 || owner = Unix.getpid () || not (alive owner) then begin
          (match read_file (pids_file dir) with
          | text ->
            List.iter
              (fun l ->
                match int_of_string_opt l with
                | Some pid when is_daemon cli pid -> (
                  try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
                | _ -> ())
              (String.split_on_char '\n' text)
          | exception Sys_error _ -> ());
          try rm_rf dir with Unix.Unix_error _ | Sys_error _ -> ()
        end)
      (Sys.readdir base)

let enter_run_dir ~cli base =
  sweep ~cli base;
  if not (Sys.file_exists base) then Unix.mkdir base 0o755;
  let dir =
    Filename.concat base
      (Printf.sprintf "%d-%d" (Unix.getpid ()) (int_of_float (Unix.gettimeofday () *. 1e3) mod 1_000_000_000))
  in
  Unix.mkdir dir 0o755;
  run_dir := Some dir;
  Sys.chdir dir

(* ---------------------------- processes ----------------------------- *)

(* Start a child with its stdout in [<name>.out] and its stderr in
   [<name>.log], both in the run directory. *)
let spawn ~name argv =
  let file ext = Unix.openfile (name ^ ext) [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let out = file ".out" and log = file ".log" in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close out; Unix.close log)
      (fun () -> Unix.create_process argv.(0) argv Unix.stdin out log)
  in
  children := (pid, name) :: !children;
  record_pid pid;
  pid

let rec waitpid_nohang pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> false
  | _ -> true
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_nohang pid
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true

(* SIGINT asks a daemon to drain; a daemon that has not exited after
   [grace] seconds is killed.  Either way the child is reaped. *)
let stop ?(grace = 10.) pid =
  (try Unix.kill pid Sys.sigint with Unix.Unix_error _ -> ());
  let deadline = Unix.gettimeofday () +. grace in
  let rec wait () =
    if waitpid_nohang pid then ()
    else if Unix.gettimeofday () > deadline then begin
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (waitpid_nohang pid);
      while not (waitpid_nohang pid) do Unix.sleepf 0.005 done
    end
    else (
      Unix.sleepf 0.005;
      wait ())
  in
  wait ();
  children := List.filter (fun (p, _) -> p <> pid) !children

(* Stop in reverse spawn order: routers before the shards they use. *)
let stop_all () = List.iter (fun (pid, _) -> stop pid) !children

let cleanup () =
  Sys.set_signal Sys.sigint Sys.Signal_ignore;
  Sys.set_signal Sys.sigterm Sys.Signal_ignore;
  stop_all ();
  match !run_dir with
  | None -> ()
  | Some dir ->
    run_dir := None;
    Sys.chdir home;
    (try rm_rf dir with Unix.Unix_error _ | Sys_error _ -> ());
    let base = Filename.dirname dir in
    if Sys.file_exists base && Sys.readdir base = [||] then
      try Unix.rmdir base with Unix.Unix_error _ -> ()

let install_signal_handlers () =
  let h = Sys.Signal_handle (fun s -> raise (Interrupted s)) in
  Sys.set_signal Sys.sigint h;
  Sys.set_signal Sys.sigterm h;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore

(* Block until a Unix socket accepts connections. *)
let wait_for_socket ?(timeout = 60.) ~pid path =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    if waitpid_nohang pid then failwith (Printf.sprintf "daemon for %s exited during start-up" path);
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> Unix.close fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
      Unix.close fd;
      if Unix.gettimeofday () > deadline then failwith ("timed out waiting for " ^ path);
      Unix.sleepf 0.002;
      go ()
  in
  go ()
