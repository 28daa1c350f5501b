type version = V1 | V2

let version_name = function V1 -> "json" | V2 -> "binary"

let version_of_name = function
  | "json" | "v1" -> Some V1
  | "binary" | "v2" -> Some V2
  | _ -> None

let max_frame_bytes = Protocol.max_line_bytes

type frame =
  | Text of string
  | Bin_analyze of {
      id : int;
      deadline_ms : int option;
      mu : int array;
      tmat : Intmat.t;
    }
  | Bin_verdict of { id : int; verdict : Protocol.verdict_wire; store : string }

(* ------------------------------ encoding ---------------------------- *)

let tag_json = 'J'
let tag_analyze = 'A'
let tag_verdict = 'V'

let status_char = function
  | "hit" -> 'h'
  | "miss" -> 'm'
  | "bypass" -> 'b'
  | "off" -> 'o'
  | "error" -> 'e'
  | "family" -> 'f'
  | other -> invalid_arg (Printf.sprintf "Wire.encode: unknown store status %S" other)

let status_of_char = function
  | 'h' -> Some "hit"
  | 'm' -> Some "miss"
  | 'b' -> Some "bypass"
  | 'o' -> Some "off"
  | 'e' -> Some "error"
  | 'f' -> Some "family"
  | _ -> None

let fits_i32 v = v >= -0x8000_0000 && v <= 0x7FFF_FFFF

let add_i32 b name v =
  if not (fits_i32 v) then
    invalid_arg (Printf.sprintf "Wire.encode: %s %d does not fit an i32" name v);
  Buffer.add_int32_be b (Int32.of_int v)

let add_u8 b name v =
  if v < 0 || v > 255 then
    invalid_arg (Printf.sprintf "Wire.encode: %s %d does not fit a u8" name v);
  Buffer.add_char b (Char.chr v)

let payload_of_frame = function
  | Text s ->
    let b = Buffer.create (String.length s + 1) in
    Buffer.add_char b tag_json;
    Buffer.add_string b s;
    Buffer.contents b
  | Bin_analyze { id; deadline_ms; mu; tmat } ->
    let k = Intmat.rows tmat and n = Intmat.cols tmat in
    if Array.length mu <> n then
      invalid_arg "Wire.encode: mu arity does not match matrix columns";
    let b = Buffer.create (16 + (4 * n * (k + 1))) in
    Buffer.add_char b tag_analyze;
    Buffer.add_int64_be b (Int64.of_int id);
    add_i32 b "deadline_ms"
      (match deadline_ms with
      | None -> -1
      | Some ms when ms < 0 -> invalid_arg "Wire.encode: negative deadline_ms"
      | Some ms -> ms);
    add_u8 b "matrix rows" k;
    add_u8 b "matrix cols" n;
    Array.iter (fun m -> add_i32 b "mu entry" m) mu;
    for i = 0 to k - 1 do
      for j = 0 to n - 1 do
        add_i32 b "matrix entry" (Zint.to_int (Intmat.get tmat i j))
      done
    done;
    Buffer.contents b
  | Bin_verdict { id; verdict; store } ->
    let w = verdict in
    let exact =
      match w.Protocol.exactness with
      | "exact" -> true
      | "bounded" -> false
      | other -> invalid_arg (Printf.sprintf "Wire.encode: unknown exactness %S" other)
    in
    let b = Buffer.create 32 in
    Buffer.add_char b tag_verdict;
    Buffer.add_int64_be b (Int64.of_int id);
    let flags =
      (if w.Protocol.conflict_free then 1 else 0)
      lor (if w.Protocol.full_rank then 2 else 0)
      lor (if exact then 4 else 0)
      lor (match w.Protocol.witness with Some _ -> 8 | None -> 0)
    in
    Buffer.add_char b (Char.chr flags);
    Buffer.add_char b (status_char store);
    add_u8 b "decided_by length" (String.length w.Protocol.decided_by);
    Buffer.add_string b w.Protocol.decided_by;
    (match w.Protocol.witness with
    | None -> ()
    | Some ws ->
      add_u8 b "witness length" (List.length ws);
      List.iter (fun x -> add_i32 b "witness entry" x) ws);
    Buffer.contents b

let encode version frame =
  match version with
  | V1 -> (
    match frame with
    | Text s ->
      if String.contains s '\n' then
        invalid_arg "Wire.encode: v1 document contains a newline";
      s ^ "\n"
    | Bin_analyze _ | Bin_verdict _ ->
      invalid_arg "Wire.encode: binary frames require the v2 transport")
  | V2 ->
    let payload = payload_of_frame frame in
    let b = Buffer.create (String.length payload + 4) in
    Buffer.add_int32_be b (Int32.of_int (String.length payload));
    Buffer.add_string b payload;
    Buffer.contents b

(* ------------------------------ decoding ---------------------------- *)

type decoder = {
  mutable buf : Bytes.t;
  mutable start : int;  (* first live byte *)
  mutable len : int;    (* live byte count *)
  mutable vers : version;
  mutable nl_scanned : int;  (* prefix of live bytes known newline-free (v1) *)
  mutable poison : string option;
}

type result = Frame of frame | Need_more | Corrupt of string

let decoder version =
  { buf = Bytes.create 4096; start = 0; len = 0; vers = version; nl_scanned = 0; poison = None }

let decoder_version d = d.vers

let set_version d v =
  d.vers <- v;
  d.nl_scanned <- 0

let buffered d = d.len

let feed d src off n =
  if n < 0 || off < 0 || off + n > Bytes.length src then
    invalid_arg "Wire.feed: bad substring";
  if d.poison = None && n > 0 then begin
    let cap = Bytes.length d.buf in
    if d.start + d.len + n > cap then begin
      (* Compact, then grow only if the live bytes + chunk still do
         not fit. *)
      if d.start > 0 then Bytes.blit d.buf d.start d.buf 0 d.len;
      d.start <- 0;
      if d.len + n > cap then begin
        let cap' =
          let rec grow c = if c >= d.len + n then c else grow (2 * c) in
          grow (max cap 64)
        in
        let buf' = Bytes.create cap' in
        Bytes.blit d.buf 0 buf' 0 d.len;
        d.buf <- buf'
      end
    end;
    Bytes.blit src off d.buf (d.start + d.len) n;
    d.len <- d.len + n
  end

let poison d msg =
  d.poison <- Some msg;
  d.len <- 0;
  d.start <- 0;
  Corrupt msg

let consume d n =
  d.start <- d.start + n;
  d.len <- d.len - n;
  if d.len = 0 then d.start <- 0

exception Malformed of string

let malformed fmt = Printf.ksprintf (fun s -> raise (Malformed s)) fmt

(* All reads below are bounds-checked against the payload length
   first, so [String.get_*] can never raise on wire input. *)
let parse_payload payload =
  let plen = String.length payload in
  let need pos n what = if pos + n > plen then malformed "truncated %s" what in
  let u8 pos = Char.code payload.[pos] in
  let i32 pos = Int32.to_int (String.get_int32_be payload pos) in
  let i64 pos = Int64.to_int (String.get_int64_be payload pos) in
  match payload.[0] with
  | c when c = tag_json -> Text (String.sub payload 1 (plen - 1))
  | c when c = tag_analyze ->
    need 1 14 "analyze header";
    let id = i64 1 in
    let dl = i32 9 in
    let k = u8 13 and n = u8 14 in
    if k < 1 || n < 1 then malformed "analyze frame with empty matrix";
    let expect = 15 + (4 * n) + (4 * k * n) in
    if plen <> expect then
      malformed "analyze frame length %d does not match %dx%d matrix" plen k n;
    let mu = Array.init n (fun j -> i32 (15 + (4 * j))) in
    let base = 15 + (4 * n) in
    let rows =
      List.init k (fun i -> List.init n (fun j -> i32 (base + (4 * ((i * n) + j)))))
    in
    Bin_analyze
      {
        id;
        deadline_ms = (if dl < 0 then None else Some dl);
        mu;
        tmat = Intmat.of_ints rows;
      }
  | c when c = tag_verdict ->
    need 1 11 "verdict header";
    let id = i64 1 in
    let flags = u8 9 in
    let store =
      match status_of_char payload.[10] with
      | Some s -> s
      | None -> malformed "unknown store status byte 0x%02x" (u8 10)
    in
    let dlen = u8 11 in
    need 12 dlen "decided_by";
    let decided_by = String.sub payload 12 dlen in
    let pos = 12 + dlen in
    let witness, pos =
      if flags land 8 = 0 then (None, pos)
      else begin
        need pos 1 "witness length";
        let wlen = u8 pos in
        need (pos + 1) (4 * wlen) "witness";
        ( Some (List.init wlen (fun i -> i32 (pos + 1 + (4 * i)))),
          pos + 1 + (4 * wlen) )
      end
    in
    if pos <> plen then malformed "verdict frame has %d trailing bytes" (plen - pos);
    Bin_verdict
      {
        id;
        verdict =
          {
            Protocol.conflict_free = flags land 1 <> 0;
            full_rank = flags land 2 <> 0;
            decided_by;
            exactness = (if flags land 4 <> 0 then "exact" else "bounded");
            witness;
          };
        store;
      }
  | c -> malformed "unknown frame tag 0x%02x" (Char.code c)

let next d =
  match d.poison with
  | Some msg -> Corrupt msg
  | None -> (
    match d.vers with
    | V1 -> (
      let limit = d.start + d.len in
      let rec scan i =
        if i >= limit then None
        else if Bytes.get d.buf i = '\n' then Some i
        else scan (i + 1)
      in
      match scan (d.start + d.nl_scanned) with
      | Some nl ->
        let line = Bytes.sub_string d.buf d.start (nl - d.start) in
        consume d (nl - d.start + 1);
        d.nl_scanned <- 0;
        Frame (Text line)
      | None ->
        d.nl_scanned <- d.len;
        if d.len > max_frame_bytes then
          poison d (Printf.sprintf "request line exceeds %d bytes" max_frame_bytes)
        else Need_more)
    | V2 ->
      if d.len < 4 then Need_more
      else
        let flen =
          Int32.to_int (Bytes.get_int32_be d.buf d.start) land 0xFFFF_FFFF
        in
        if flen < 1 then poison d "empty frame"
        else if flen > max_frame_bytes then
          poison d
            (Printf.sprintf "frame of %d bytes exceeds the %d byte cap" flen
               max_frame_bytes)
        else if d.len < 4 + flen then Need_more
        else begin
          let payload = Bytes.sub_string d.buf (d.start + 4) flen in
          consume d (4 + flen);
          match parse_payload payload with
          | frame -> Frame frame
          | exception Malformed msg -> poison d msg
        end)
