type handler = { on_read : unit -> unit; on_hangup : unit -> unit }

type entry = {
  conn : Conn.t;
  handler : handler;
  inbound : bool;  (* accepted from the listener *)
  mutable connecting : bool;
}

type t = {
  mutable listener : (Conn.listen * Unix.file_descr) option;
  port : int option;
  pipe_r : Unix.file_descr;
  pipe_w : Unix.file_descr;
  mutable entries : entry list;
  chunk : Bytes.t;
  pipe_buf : Bytes.t;
}

let create ?listen () =
  let listener = Option.map (fun l -> (l, Conn.bind l)) listen in
  let pipe_r, pipe_w = Unix.pipe () in
  Unix.set_nonblock pipe_r;
  {
    listener;
    port = Option.bind listener (fun (_, fd) -> Conn.bound_port fd);
    pipe_r;
    pipe_w;
    entries = [];
    chunk = Bytes.create 65536;
    pipe_buf = Bytes.create 256;
  }

let port t = t.port

(* The self-pipe carries two byte values: ['d'] asks for a drain,
   ['w'] only interrupts the wait. *)
let signal t byte = try ignore (Unix.write_substring t.pipe_w byte 0 1) with Unix.Unix_error _ -> ()
let wake t = signal t "d"
let nudge t = signal t "w"

let watch t ?(inbound = false) ?(connecting = false) conn handler =
  t.entries <- { conn; handler; inbound; connecting } :: t.entries

let add t ?connecting conn handler = watch t ?connecting conn handler

let teardown e =
  e.handler.on_hangup ();
  Conn.close e.conn

(* A connection that stopped reading after a corrupt stream goes once
   its last reply is out. *)
let flush e =
  let pending = Obs.Trace.with_span "reactor.flush" (fun () -> Conn.flush e.conn) in
  if (not pending) && Conn.closing e.conn then teardown e

let service t e (ev : Poll.event) =
  if not (Conn.closed e.conn) then
    if e.connecting then
      match Unix.getsockopt_error (Conn.fd e.conn) with
      | None -> e.connecting <- false
      | Some _ -> teardown e
    else begin
      if ev.ready_write then flush e;
      if (not (Conn.closed e.conn)) && (ev.ready_read || ev.ready_error) then
        if Conn.closing e.conn then (if ev.ready_error then teardown e)
        else
          match Obs.Trace.with_span "reactor.read" (fun () -> Conn.read e.conn t.chunk) with
          | `Blocked -> ()
          | `Eof -> teardown e
          | `Data ->
            (* One flush for the burst of replies, unless output was
               already waiting: then they join it at the next round's
               writes, one write for all. *)
            let waiting = Conn.pending e.conn in
            Obs.Trace.with_span "reactor.dispatch" e.handler.on_read;
            if not (waiting || Conn.closed e.conn) then flush e
    end

(* The writes before the wait, and the wait list they leave, each
   descriptor with what its readiness runs: connections closed by their
   caller leave the reactor, and so do those that have flushed their
   last reply after a corrupt stream. *)
let prepare t =
  let watched = ref [] and gone = ref [] in
  let poll e want = watched := (Conn.fd e.conn, want, service t e) :: !watched in
  t.entries <-
    List.filter
      (fun e ->
        if Conn.closed e.conn then false
        else if e.connecting then (poll e { Poll.want_read = false; want_write = true }; true)
        else
          let pending = Conn.flush e.conn in
          if Conn.closing e.conn && not pending then (gone := e :: !gone; false)
          else (poll e { Poll.want_read = not (Conn.closing e.conn); want_write = pending }; true))
      t.entries;
  List.iter teardown !gone;
  !watched

let read_only = { Poll.want_read = true; want_write = false }

let round t ~accept ~wake deadline =
  let read_pipe _ =
    match Unix.read t.pipe_r t.pipe_buf 0 (Bytes.length t.pipe_buf) with
    | n -> wake ~drain:(Bytes.contains (Bytes.sub t.pipe_buf 0 n) 'd')
    | exception Unix.Unix_error _ -> ()
  in
  let accept_burst fd accept _ =
    Conn.accept_burst fd (fun fd ->
        let conn = Conn.create fd in
        match accept conn with
        | Some handler -> watch t ~inbound:true conn handler
        | None -> Conn.close conn)
  in
  let watched = Obs.Trace.with_span "reactor.flush" (fun () -> prepare t) in
  let watched =
    (t.pipe_r, read_only, read_pipe)
    ::
    (match (t.listener, accept) with
    | Some (_, fd), Some accept -> (fd, read_only, accept_burst fd accept) :: watched
    | _ -> watched)
  in
  let timeout_ms =
    if deadline = infinity then -1
    else max 0 (int_of_float (Float.ceil ((deadline -. Unix.gettimeofday ()) *. 1000.)))
  in
  let events =
    Obs.Trace.with_span "reactor.wait" (fun () ->
        Poll.wait (List.map (fun (fd, want, _) -> (fd, want)) watched) ~timeout_ms)
  in
  (* [Poll.wait] reports ready descriptors in input order, so each event
     pairs with what was polled by walking both lists once; a
     descriptor reused within the round never reaches a newer
     connection. *)
  let rec pair watched events =
    match (watched, events) with
    | [], _ | _, [] -> ()
    | (fd, _, ready) :: ws, (efd, ev) :: es ->
      if fd = efd then begin
        ready ev;
        pair ws es
      end
      else pair ws events
  in
  pair watched events

let run t ?accept ?(wake = fun ~drain:_ -> ()) tick =
  let rec loop () =
    match tick () with
    | None -> ()
    | Some deadline ->
      round t ~accept ~wake deadline;
      loop ()
  in
  loop ()

let pending t = List.exists (fun e -> (not (Conn.closed e.conn)) && Conn.pending e.conn) t.entries

let close_listener t =
  Option.iter
    (fun (listen, fd) ->
      t.listener <- None;
      Conn.close_listener listen fd)
    t.listener

let hang_up t =
  close_listener t;
  List.iter (fun e -> if e.inbound then (ignore (Conn.flush e.conn); Conn.close e.conn)) t.entries

let close t =
  close_listener t;
  List.iter (fun e -> Conn.close e.conn) t.entries;
  t.entries <- [];
  (try Unix.close t.pipe_r with Unix.Unix_error _ -> ());
  try Unix.close t.pipe_w with Unix.Unix_error _ -> ()
