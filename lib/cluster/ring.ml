(* Consistent-hash ring over shard indices.  Each shard owns [vnodes]
   points on a 32-bit circle; a key hashes to the first point at or
   after it (wrapping).  Placement depends only on (shards, vnodes) —
   never on socket paths or boot order — so a router restart, the
   chaos audit and a re-spawned fleet all agree on who owns what. *)

type t = { points : (int * int) array; shards : int; vnodes : int }

let make ?(vnodes = 64) shards =
  if shards < 1 then invalid_arg "Ring.make: shards must be >= 1";
  if vnodes < 1 then invalid_arg "Ring.make: vnodes must be >= 1";
  let points =
    Array.init (shards * vnodes) (fun i ->
        let shard = i / vnodes and replica = i mod vnodes in
        (Fault.fnv1a (Printf.sprintf "shard:%d:%d" shard replica), shard))
  in
  (* Ties (two vnodes hashing to the same point) break towards the
     lower shard index — [compare] on the pair is total, so the sort
     is deterministic. *)
  Array.sort compare points;
  { points; shards; vnodes }

let shards t = t.shards
let vnodes t = t.vnodes

let shard_of t hash =
  let h = hash land 0xFFFFFFFF in
  let n = Array.length t.points in
  (* Lower bound: first point >= h, else wrap to the first point. *)
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if fst t.points.(mid) < h then lo := mid + 1 else hi := mid
  done;
  snd t.points.(if !lo = n then 0 else !lo)

let spread t ~samples =
  if samples < 1 then invalid_arg "Ring.spread: samples must be >= 1";
  let counts = Array.make t.shards 0 in
  for i = 0 to samples - 1 do
    let s = shard_of t (Fault.fnv1a (string_of_int i)) in
    counts.(s) <- counts.(s) + 1
  done;
  counts
