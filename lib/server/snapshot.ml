(* Hash-indexed store snapshot ("shangfortes-snap 1"): a sorted table
   of journal record lines, a fixed-width offset index, and a CRC'd
   footer, laid out so a reader needs exactly two bounded reads —
   header and footer — before it can answer its first query.

     header   "shangfortes-snap 1\n"
     data     record lines (journal format, '\n'-terminated),
              sorted by (kind, hash, key)
     index    count x 13-byte entries, same order:
              kind (1B) | hash (u32 BE) | offset (u32 BE) | len (u32 BE)
     footer   24 bytes: "SFSNAP1F" | index_off (u64 BE)
              | count (u32 BE) | crc (u32 BE, FNV-1a over the index)

   Offsets are absolute file positions of line starts; lengths exclude
   the newline.  Every record line carries its own body CRC (the
   journal frame), so the index is a locator, not an authority: a
   bit-flipped index entry yields a read that fails record validation
   in the caller and turns into a miss, never a crash. *)

let header = "shangfortes-snap 1"
let footer_magic = "SFSNAP1F"
let entry_bytes = 13
let footer_bytes = 24

let put_u32 b off v =
  Bytes.set b off (Char.chr ((v lsr 24) land 0xFF));
  Bytes.set b (off + 1) (Char.chr ((v lsr 16) land 0xFF));
  Bytes.set b (off + 2) (Char.chr ((v lsr 8) land 0xFF));
  Bytes.set b (off + 3) (Char.chr (v land 0xFF))

let get_u32 b off =
  (Char.code (Bytes.get b off) lsl 24)
  lor (Char.code (Bytes.get b (off + 1)) lsl 16)
  lor (Char.code (Bytes.get b (off + 2)) lsl 8)
  lor Char.code (Bytes.get b (off + 3))

(* ------------------------------ writer ----------------------------- *)

(* Write a snapshot atomically (tmp + rename, fsynced) from the given
   [(kind, hash, key, line)] records; [line] is the canonical journal
   record line without its newline.  Returns the record count. *)
let write path records =
  let records =
    List.sort
      (fun (k1, h1, s1, _) (k2, h2, s2, _) ->
        match Char.compare k1 k2 with
        | 0 -> ( match compare (h1 : int) h2 with 0 -> String.compare s1 s2 | c -> c)
        | c -> c)
      records
  in
  let tmp = path ^ ".tmp" in
  let oc = open_out_gen [ Open_wronly; Open_creat; Open_trunc; Open_binary ] 0o644 tmp in
  output_string oc header;
  output_char oc '\n';
  let pos = ref (String.length header + 1) in
  let index = Buffer.create (List.length records * entry_bytes) in
  let ebuf = Bytes.create entry_bytes in
  List.iter
    (fun (kind, hash, _key, line) ->
      output_string oc line;
      output_char oc '\n';
      Bytes.set ebuf 0 kind;
      put_u32 ebuf 1 (hash land 0xFFFFFFFF);
      put_u32 ebuf 5 !pos;
      put_u32 ebuf 9 (String.length line);
      Buffer.add_bytes index ebuf;
      pos := !pos + String.length line + 1)
    records;
  let index_off = !pos in
  let ibytes = Buffer.contents index in
  output_string oc ibytes;
  let footer = Bytes.create footer_bytes in
  Bytes.blit_string footer_magic 0 footer 0 8;
  (* index_off as u64 BE: the high word is written via two u32 puts. *)
  put_u32 footer 8 (index_off lsr 32);
  put_u32 footer 12 (index_off land 0xFFFFFFFF);
  put_u32 footer 16 (List.length records);
  put_u32 footer 20 (Fault.fnv1a ibytes);
  output_bytes oc footer;
  flush oc;
  Unix.fsync (Unix.descr_of_out_channel oc);
  close_out oc;
  Sys.rename tmp path;
  Fault.fsync_dir path;
  List.length records

(* ------------------------------ reader ----------------------------- *)

type t = {
  path : string;
  fd : Unix.file_descr;
  size : int;
  index_off : int;
  count : int;
  index_crc : int;
  (* Lazy: loaded (one read) on the first query, not at open. *)
  mutable index : Bytes.t option;
  mutable index_crc_ok : bool;
  mutable reads : int;  (* positioned reads issued, open included *)
  mutable corrupt : int;  (* index entries that failed validation *)
  lock : Mutex.t;
}

let reads t = t.reads
let entries t = t.count
let corrupt_entries t = t.corrupt
let path t = t.path

let pread t buf off len =
  t.reads <- t.reads + 1;
  ignore (Unix.lseek t.fd off Unix.SEEK_SET);
  let rec go pos =
    if pos < len then
      match Unix.read t.fd buf pos (len - pos) with
      | 0 -> pos
      | n -> go (pos + n)
    else pos
  in
  go 0

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

(* Open = two bounded reads (header line, footer), independent of the
   snapshot's size; the index and the records are only touched by
   queries.  Any structural problem is an [Error] — the store falls
   back to a full journal replay rather than crashing. *)
let open_reader path =
  match Unix.openfile path [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error (e, _, _) ->
    Error (Printf.sprintf "cannot open %s: %s" path (Unix.error_message e))
  | fd -> (
    let fail msg =
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error msg
    in
    match (Unix.fstat fd).Unix.st_size with
    | exception Unix.Unix_error (e, _, _) -> fail (Unix.error_message e)
    | size ->
      let header_len = String.length header + 1 in
      if size < header_len + footer_bytes then
        fail (Printf.sprintf "%s: truncated snapshot (%d bytes)" path size)
      else begin
        let t =
          {
            path;
            fd;
            size;
            index_off = 0;
            count = 0;
            index_crc = 0;
            index = None;
            index_crc_ok = true;
            reads = 0;
            corrupt = 0;
            lock = Mutex.create ();
          }
        in
        let hbuf = Bytes.create header_len in
        if pread t hbuf 0 header_len <> header_len
           || Bytes.to_string hbuf <> header ^ "\n"
        then fail (Printf.sprintf "%s: not a snapshot (bad header)" path)
        else begin
          let fbuf = Bytes.create footer_bytes in
          if pread t fbuf (size - footer_bytes) footer_bytes <> footer_bytes then
            fail (Printf.sprintf "%s: unreadable footer" path)
          else if Bytes.sub_string fbuf 0 8 <> footer_magic then
            fail (Printf.sprintf "%s: truncated or foreign footer" path)
          else
            let index_off = (get_u32 fbuf 8 lsl 32) lor get_u32 fbuf 12 in
            let count = get_u32 fbuf 16 in
            let index_crc = get_u32 fbuf 20 in
            if
              index_off < header_len
              || index_off + (count * entry_bytes) <> size - footer_bytes
            then fail (Printf.sprintf "%s: footer geometry does not match file" path)
            else Ok { t with index_off; count; index_crc }
        end
      end)

let load_index t =
  match t.index with
  | Some ix -> ix
  | None ->
    let ix = Bytes.create (t.count * entry_bytes) in
    let got = pread t ix t.index_off (Bytes.length ix) in
    if got <> Bytes.length ix then t.index_crc_ok <- false
    else if Fault.fnv1a (Bytes.unsafe_to_string ix) <> t.index_crc then begin
      (* Keep serving: each located record still self-validates, so a
         damaged index degrades to misses on the damaged entries. *)
      t.index_crc_ok <- false;
      ignore
        (Obs.Warn.once
           ("server.snapshot.index_crc:" ^ t.path)
           (Printf.sprintf
              "snapshot %s: index checksum mismatch; damaged entries will miss" t.path))
    end;
    t.index <- Some ix;
    ix

let entry_key ix i =
  let off = i * entry_bytes in
  (Bytes.get ix off, get_u32 ix (off + 1))

(* All record lines indexed under (kind, hash) — normally zero or one,
   more only on a 32-bit collision.  Entries with impossible geometry
   or unreadable bytes are counted corrupt and skipped; the caller
   still validates each returned line against the record's own CRC. *)
let find_all t ~kind ~hash =
  Mutex.protect t.lock (fun () ->
      let hash = hash land 0xFFFFFFFF in
      let ix = load_index t in
      let want = (kind, hash) in
      let cmp i =
        let k, h = entry_key ix i in
        match Char.compare k kind with 0 -> compare h hash | c -> c
      in
      (* First index whose (kind, hash) >= want. *)
      let rec lower lo hi =
        if lo >= hi then lo
        else
          let mid = (lo + hi) / 2 in
          if cmp mid < 0 then lower (mid + 1) hi else lower lo mid
      in
      let start = lower 0 t.count in
      let out = ref [] in
      let i = ref start in
      while !i < t.count && entry_key ix !i = want do
        let pos = get_u32 ix ((!i * entry_bytes) + 5) in
        let len = get_u32 ix ((!i * entry_bytes) + 9) in
        let header_len = String.length header + 1 in
        if len = 0 || len > t.index_off || pos < header_len || pos + len > t.index_off
        then t.corrupt <- t.corrupt + 1
        else begin
          let buf = Bytes.create len in
          if pread t buf pos len = len then out := Bytes.to_string buf :: !out
          else t.corrupt <- t.corrupt + 1
        end;
        incr i
      done;
      List.rev !out)

(* Sequential sweep of the data region, for compaction: every complete
   line between the header and the index, in file order.  Lines are
   handed over raw; the caller validates. *)
let iter_lines t f =
  Mutex.protect t.lock (fun () ->
      let header_len = String.length header + 1 in
      let len = t.index_off - header_len in
      if len > 0 then begin
        let buf = Bytes.create len in
        let got = pread t buf header_len len in
        let data = Bytes.sub_string buf 0 got in
        let n = String.length data in
        let rec go off =
          if off < n then
            match String.index_from_opt data off '\n' with
            | None -> ()
            | Some nl ->
              f (String.sub data off (nl - off));
              go (nl + 1)
        in
        go 0
      end)
