type listen = Unix_sock of string | Tcp of int

let locked lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

(* ------------------------------ listener ----------------------------- *)

let listen_on fd addr =
  match
    Unix.bind fd addr;
    Unix.listen fd 64;
    Unix.set_nonblock fd
  with
  | () -> fd
  | exception e ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    raise e

(* A path that IS a socket gets probed with a connect: refused or gone
   means a dead owner, so unlink and take over; answered means another
   server is live, so fail loudly.  A path that exists but is NOT a
   socket is never unlinked (a store journal, say, must not be
   clobbered by a mistyped --socket). *)
let clear_stale path =
  match Unix.stat path with
  | { Unix.st_kind = Unix.S_SOCK; _ } -> (
    let probe = Unix.socket PF_UNIX SOCK_STREAM 0 in
    let close_probe () = try Unix.close probe with Unix.Unix_error _ -> () in
    match Unix.connect probe (ADDR_UNIX path) with
    | () ->
      close_probe ();
      failwith (Printf.sprintf "a server is already listening on %s" path)
    | exception Unix.Unix_error ((ECONNREFUSED | ENOENT), _, _) ->
      close_probe ();
      (try Unix.unlink path with Unix.Unix_error _ -> ())
    | exception e ->
      close_probe ();
      raise e)
  | _ -> failwith (Printf.sprintf "%s exists and is not a socket; refusing to unlink" path)
  | exception Unix.Unix_error (ENOENT, _, _) -> ()

let bind listen =
  (* A peer hanging up mid-reply must surface as EPIPE on the write,
     not kill the process. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  match listen with
  | Unix_sock path ->
    clear_stale path;
    listen_on (Unix.socket PF_UNIX SOCK_STREAM 0) (ADDR_UNIX path)
  | Tcp port ->
    let fd = Unix.socket PF_INET SOCK_STREAM 0 in
    Unix.setsockopt fd SO_REUSEADDR true;
    listen_on fd (ADDR_INET (Unix.inet_addr_loopback, port))

let bound_port fd =
  match Unix.getsockname fd with ADDR_INET (_, port) -> Some port | _ -> None

let close_listener listen fd =
  (try Unix.close fd with Unix.Unix_error _ -> ());
  match listen with
  | Unix_sock path -> ( try Sys.remove path with Sys_error _ -> ())
  | Tcp _ -> ()

let accept_burst listen_fd f =
  let rec go budget =
    if budget > 0 then
      match Unix.accept listen_fd with
      | fd, _ ->
        Unix.set_nonblock fd;
        f fd;
        go (budget - 1)
      | exception Unix.Unix_error _ -> ()
  in
  go 128

(* ---------------------------- output buffer -------------------------- *)

(* A growable byte queue per connection: messages append at the tail,
   the nonblocking flush consumes from the head.  Reused for the
   connection's whole life, so the warm path never allocates a fresh
   buffer per reply. *)
module Outbuf = struct
  type t = { mutable buf : Bytes.t; mutable start : int; mutable len : int }

  let create n = { buf = Bytes.create n; start = 0; len = 0 }

  let add b s =
    let n = String.length s in
    let cap = Bytes.length b.buf in
    if b.start + b.len + n > cap then begin
      if b.start > 0 then Bytes.blit b.buf b.start b.buf 0 b.len;
      b.start <- 0;
      if b.len + n > cap then begin
        let rec grow c = if c >= b.len + n then c else grow (2 * c) in
        let buf' = Bytes.create (grow (max cap 64)) in
        Bytes.blit b.buf 0 buf' 0 b.len;
        b.buf <- buf'
      end
    end;
    Bytes.blit_string s 0 b.buf (b.start + b.len) n;
    b.len <- b.len + n

  let consume b n =
    b.start <- b.start + n;
    b.len <- b.len - n;
    if b.len = 0 then b.start <- 0

  let clear b =
    b.start <- 0;
    b.len <- 0
end

(* ----------------------------- connections --------------------------- *)

type t = {
  fd : Unix.file_descr;
  dec : Wire.decoder;  (* loop thread only *)
  out : Outbuf.t;
  olock : Mutex.t;
  (* [out], [version] and [dead] are under [olock]. *)
  mutable version : Wire.version;
  mutable dead : bool;
  mutable closing : bool;  (* loop thread only *)
}

let create fd =
  {
    fd;
    dec = Wire.decoder Wire.V1;
    out = Outbuf.create 4096;
    olock = Mutex.create ();
    version = Wire.V1;
    dead = false;
    closing = false;
  }

let fd c = c.fd
let decoder c = c.dec
let closed c = c.dead
let closing c = c.closing

let read c chunk =
  match Unix.read c.fd chunk 0 (Bytes.length chunk) with
  | 0 -> `Eof
  | n ->
    Wire.feed c.dec chunk 0 n;
    `Data
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> `Blocked
  | exception Unix.Unix_error _ -> `Eof

(* A dead peer is not an error: the bytes are dropped, and the read
   side observes the hangup and tears the connection down. *)
let flush_locked c =
  let rec go () =
    if c.out.Outbuf.len > 0 then
      match Unix.write c.fd c.out.Outbuf.buf c.out.Outbuf.start c.out.Outbuf.len with
      | 0 -> ()
      | n ->
        Outbuf.consume c.out n;
        go ()
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
      | exception Unix.Unix_error _ -> Outbuf.clear c.out
  in
  go ();
  c.out.Outbuf.len > 0

let send ?(flush = false) c make =
  locked c.olock (fun () ->
      if c.dead then false
      else begin
        Outbuf.add c.out (make c.version);
        if flush then flush_locked c else true
      end)

let flush c = locked c.olock (fun () -> (not c.dead) && flush_locked c)
let pending c = locked c.olock (fun () -> c.out.Outbuf.len > 0)

let shutdown c =
  locked c.olock (fun () ->
      if not c.dead then try Unix.shutdown c.fd SHUTDOWN_ALL with Unix.Unix_error _ -> ())

let close c =
  locked c.olock (fun () ->
      if not c.dead then begin
        c.dead <- true;
        try Unix.close c.fd with Unix.Unix_error _ -> ()
      end)

(* ------------------------------ messages ----------------------------- *)

let doc json version = Wire.encode version (Wire.Text (Json.to_string json))

let analyze_reply ~id ~bin result version =
  match (id, version) with
  | Json.Int id, Wire.V2 when bin ->
    let verdict, store = result in
    Wire.encode Wire.V2 (Wire.Bin_verdict { id; verdict; store })
  | _ -> doc (Protocol.ok_reply ~id ~op:"analyze" (Handlers.fields_of_analyze result)) version

let analyze_request ~id ?deadline_ms ~mu tmat version =
  let json () = doc (Protocol.analyze ~id:(Json.Int id) ?deadline_ms ~mu tmat) version in
  match version with
  | Wire.V1 -> json ()
  | Wire.V2 -> (
    try Wire.encode Wire.V2 (Wire.Bin_analyze { id; deadline_ms; mu; tmat })
    with Invalid_argument _ -> json ())

let request_of_frame = function
  | Wire.Text line -> (
    match Json.parse ~max_bytes:Protocol.max_line_bytes line with
    | Error msg -> Error (Protocol.error_reply ~id:Json.Null ~code:"parse_error" ~detail:msg)
    | Ok json -> (
      match Protocol.parse_request json with
      | Ok env -> Ok (env, false)
      | Error msg ->
        Error (Protocol.error_reply ~id:(Protocol.reply_id json) ~code:"bad_request" ~detail:msg)))
  | Wire.Bin_analyze { id; deadline_ms; mu; tmat } ->
    let bad detail = Error (Protocol.error_reply ~id:(Json.Int id) ~code:"bad_request" ~detail) in
    if Array.length mu <> Intmat.cols tmat then bad "mu arity does not match t columns"
    else if Array.exists (fun m -> m < 1) mu then bad "mu entries must be >= 1"
    else Ok ({ Protocol.id = Json.Int id; req = Protocol.Analyze { mu; tmat; deadline_ms } }, true)
  | Wire.Bin_verdict _ ->
    Error
      (Protocol.error_reply ~id:Json.Null ~code:"bad_request"
         ~detail:"verdict frames flow server to client only")

let rec pull c ~reject handle =
  if not (c.closing || c.dead) then
    match Wire.next c.dec with
    | Wire.Need_more -> ()
    | Wire.Frame f ->
      (match request_of_frame f with
      | Ok (env, bin) -> handle ~bin env
      | Error reply -> reject reply);
      pull c ~reject handle
    | Wire.Corrupt msg ->
      (* One structured reply, then drop: there is no way to
         resynchronize a corrupt stream. *)
      reject (Protocol.error_reply ~id:Json.Null ~code:"parse_error" ~detail:msg);
      c.closing <- true

let hello c ~id ~max transport =
  let accepted =
    match Wire.version_of_name transport with
    | Some Wire.V1 -> Some Wire.V1
    | Some Wire.V2 when max = Wire.V2 -> Some Wire.V2
    | Some Wire.V2 | None -> None
  in
  match accepted with
  | None ->
    Error
      (Protocol.error_reply ~id ~code:"bad_request"
         ~detail:(Printf.sprintf "unknown or disabled transport %S" transport))
  | Some v ->
    (* Ack in the current dialect, then switch both directions under
       the lock, so any reply encoded after this point (one from a
       concurrently finishing worker included) lands after the ack
       bytes in the new dialect, exactly where the peer switches its
       own decoder. *)
    locked c.olock (fun () ->
        if not c.dead then begin
          Outbuf.add c.out
            (doc (Protocol.ok_reply ~id ~op:"hello" [ ("transport", Json.Str (Wire.version_name v)) ])
               c.version);
          c.version <- v
        end);
    Wire.set_version c.dec v;
    Ok v

let upgrade c v =
  locked c.olock (fun () ->
      Outbuf.add c.out (doc (Protocol.hello ~transport:(Wire.version_name v) ()) c.version);
      c.version <- v)
