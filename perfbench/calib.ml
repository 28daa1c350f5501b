(* The host's speed, from a fixed amount of the benchmark's own work.

   The machine the benchmark was built on is a virtual machine whose
   CPU speed drifts with what the rest of its host does: the same
   kernel run needed from 0.11 to 0.18 us of CPU per point in runs
   minutes apart, and every workload sped up and slowed down with it.
   That drift is not the program's.  So the benchmark times a
   calibration unit (work that calls no library code, so no change to
   the program can move it) right before each of the workload's timed
   intervals, while the system under test is idle, and expresses the
   interval in reference seconds: the seconds the same work would have
   taken on a host that runs the unit in [reference_s].

   The unit sorts an array and chases pointers through a table, both
   allocated once and small enough for a core's own caches.  Sorting
   (calls, branches, loads and stores) slowed with the host the way the
   kernel and the searches did, where a chain of dependent integer
   operations barely slowed at all.  The unit allocates nothing, so
   neither the collector's state nor what the workload left in the
   caches changes its time.  The fastest of five units depends on the
   host's speed alone: the first may find cold caches, and the host may
   take the CPU away during one (steal is counted separately, see
   Sut.granted).  Two domains run it at once, one per core of the
   machine it was built on, since the workloads keep both cores busy. *)

(* The unit's typical time on the machine the benchmark was built on;
   it only fixes the scale of a reference second. *)
let reference_s = 7e-4

let table_words = 1 lsl 17 (* 1 MB *)

(* One cycle through every slot in a scattered order: i -> a*i + 1 mod
   2^17 has full period since a = 1 mod 4. *)
let table = lazy (Array.init table_words (fun i -> ((i * 2654435761) + 1) land (table_words - 1)))

let sort_words = 2048
let template = lazy (Array.init sort_words (fun i -> (i * 7919) mod 2053))

(* One scratch array per domain running the unit. *)
let scratch = lazy (Array.init 2 (fun _ -> Array.make sort_words 0))

let work a =
  let t = Lazy.force table in
  let j = ref 0 in
  for _ = 1 to 8192 do
    j := Array.unsafe_get t !j
  done;
  Array.blit (Lazy.force template) 0 a 0 sort_words;
  Array.sort Int.compare a;
  !j + a.(0)

let fastest a =
  let best = ref infinity in
  for _ = 1 to 5 do
    let t0 = Sample.now () in
    ignore (Sys.opaque_identity (work a));
    best := Float.min !best (Sample.now () -. t0)
  done;
  !best

(* The host's speed now, as the share of the reference speed it gives:
   reference seconds = host seconds * [speed ()]. *)
let speed () =
  let s = Lazy.force scratch in
  ignore (Lazy.force table, Lazy.force template);
  let other = Domain.spawn (fun () -> fastest s.(1)) in
  let mine = fastest s.(0) in
  reference_s /. ((mine +. Domain.join other) /. 2.)
