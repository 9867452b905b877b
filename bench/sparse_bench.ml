(* `bench sparse`: the dead-aware navigation layer in a sparse identifier
   space (paper Section 3's advanced model, N much smaller than 2^m).

   At m = 20 (1,048,576 slots) the status word is thinned to 50%, 10% and
   1% live, either uniformly or in clustered dead runs (alternating runs
   of consecutive PIDs: live runs of mean 64 slots, dead runs of mean
   64 (1 - d) / d). For each layout it times the four queries whose
   bounds DESIGN §6 states in bit tests of the status word —
   [insertion_target] and [find_live_node] (O(gap)), [next_hop] (O(m)
   climb, plus the O(gap) insertion scan when every ancestor and the
   root are dead) and [first_child] (O(F), the live children frontier
   with the dead nodes above it) — and counts the bit tests each call
   makes. [Ops.get] from a live origin, for one of 64 inserted keys,
   times what one whole request costs, the unit a run is made of; its
   count column is hops, not bit tests.

   Bit tests are counted by replaying each query's walk over the same
   status word, outside the library: the downward scan, the climb and
   the frontier, each testing one bit at a time with a counter. Every
   replay of every query checks its answer against the library's and the
   run fails if they disagree, so a count cannot drift from the code it
   describes. Times are the best of three passes over 20,000
   pre-drawn inputs. Results append to BENCH_sparse.json
   ($LESSLOG_BENCH_OUT or the working directory); LESSLOG_BENCH_QUICK=1
   runs at m = 14. *)

open Lesslog_id
module Cluster = Lesslog.Cluster
module Ops = Lesslog.Ops
module Status_word = Lesslog_membership.Status_word
module Ptree = Lesslog_ptree.Ptree
module Topology = Lesslog_topology.Topology
module Bitops = Lesslog_bits.Bitops
module Rng = Lesslog_prng.Rng
module Bench_json = Lesslog_report.Bench_json

let inputs = 20_000

let out_file name =
  let dir = Option.value (Sys.getenv_opt "LESSLOG_BENCH_OUT") ~default:"." in
  Filename.concat dir name

(* Uniform: kill a uniform [1 - density] of the slots. Clustered:
   alternate live and dead runs of consecutive PIDs, each run's length
   uniform in [1, 2 mean - 1]. *)
let thin status rng ~clustered ~density =
  if not clustered then
    ignore (Status_word.kill_fraction status rng ~fraction:(1.0 -. density))
  else begin
    let space = Params.space (Status_word.params status) in
    let run mean = 1 + Rng.int rng (max 1 ((2 * mean) - 1)) in
    let live_mean = 64 in
    let dead_mean =
      int_of_float (Float.round (64.0 *. (1.0 -. density) /. density))
    in
    let p = ref (Rng.int rng live_mean) in
    while !p < space do
      p := !p + run live_mean;
      let stop = min space (!p + run dead_mean) in
      for q = !p to stop - 1 do
        Status_word.set_dead status (Pid.unsafe_of_int q)
      done;
      p := stop
    done
  end

let vid tree p = Vid.to_int (Ptree.vid_of_pid tree p)

let pid_of tree v = Ptree.pid_of_vid tree (Vid.unsafe_of_int v)
let live_at status tree v = Status_word.is_live status (pid_of tree v)

(* FINDLIVENODE's downward scan from VID [v] (inclusive), one bit at a
   time: the first live VID at or below [v] ([-1]: ran off the bottom)
   and the bit tests it made. *)
let scan_down status tree v =
  let rec go u tests =
    if u < 0 then (-1, tests)
    else if live_at status tree u then (u, tests + 1)
    else go (u - 1) (tests + 1)
  in
  go v 0

(* The climb of [next_hop]: each ancestor's bit until a live one. *)
let rec climb_tests status tree mask v tests =
  let zeros = lnot v land mask in
  if zeros = 0 then (-1, tests)
  else
    let v = v lor (1 lsl Bitops.floor_log2 zeros) in
    if live_at status tree v then (v, tests + 1)
    else climb_tests status tree mask v (tests + 1)

(* [next_hop]'s bit tests, and its answer as a VID ([-1]: end of route):
   the climb, then the root's bit, then the insertion scan from the root
   (which tests the root again). *)
let hop_tests status tree p =
  let mask = Params.mask (Ptree.params tree) in
  let v = vid tree p in
  match climb_tests status tree mask v 0 with
  | q, tests when q >= 0 -> (q, tests)
  | _, tests when live_at status tree mask -> (-1, tests + 1)
  | _, tests ->
      let g, scan = scan_down status tree mask in
      ((if g = v then -1 else g), tests + 1 + scan)

(* [first_child]'s frontier walk with a counter on each bit test. *)
let rec frontier_tests status tree m ~skip_all tests best v =
  let n =
    let zeros = lnot v land Params.mask (Ptree.params tree) in
    if zeros = 0 then m else m - 1 - Bitops.floor_log2 zeros
  in
  let best = ref best in
  for i = 0 to n - 1 do
    let c = v land lnot (1 lsl (m - n + i)) in
    if c > !best then begin
      incr tests;
      if live_at status tree c then begin
        if not skip_all then best := c
      end
      else best := frontier_tests status tree m ~skip_all tests !best c
    end
  done;
  !best

let time_per_call f xs =
  let best = ref infinity in
  for _ = 1 to 3 do
    let t0 = Unix.gettimeofday () in
    Array.iter (fun x -> ignore (Sys.opaque_identity (f x))) xs;
    best := Float.min !best (Unix.gettimeofday () -. t0)
  done;
  1e9 *. !best /. float_of_int (Array.length xs)

type row = {
  query : string;
  ns : float;
  mean : float;
  max : int;
  bound : string;
}

let row query ns counts bound =
  let total = Array.fold_left ( + ) 0 counts in
  {
    query;
    ns;
    mean = float_of_int total /. float_of_int (Array.length counts);
    max = Array.fold_left max 0 counts;
    bound;
  }

(* The replay's answer (a VID, [-1] for none) must be the library's (a
   PID int, [-1] for none). *)
let check what tree ~got v =
  if got <> (if v < 0 then -1 else Pid.to_int (pid_of tree v)) then
    failwith ("bench sparse: replay disagrees on " ^ what)

let pid_opt = function Some p -> Pid.to_int p | None -> -1

let probe ~m ~clustered ~density ~seed =
  let params = Params.create ~m () in
  let rng = Rng.create ~seed in
  let random_pid _ = Pid.unsafe_of_int (Rng.int rng (Params.space params)) in
  let cluster = Cluster.create params in
  let status = Cluster.status cluster in
  thin status rng ~clustered ~density;
  let live = Status_word.live_array status in
  if Array.length live = 0 then failwith "bench sparse: no live node";
  let keys = Array.init 64 (Printf.sprintf "bench/sparse-%d") in
  Array.iter (fun key -> ignore (Ops.insert cluster ~key)) keys;
  let trees = Array.init 256 (fun i -> Ptree.make params ~root:(random_pid i)) in
  let tree_at i = trees.(i land 255) in
  let any = Array.init inputs random_pid in
  let live_starts =
    Array.init inputs (fun _ -> live.(Rng.int rng (Array.length live)))
  in
  let idx = Array.init inputs Fun.id in
  let insertion_target i =
    Topology.insertion_target ~b:0 (tree_at i) status ~subtree_id:0
  in
  let insertion =
    row "insertion_target"
      (time_per_call insertion_target idx)
      (Array.mapi
         (fun i tree ->
           let g, tests = scan_down status tree (Params.mask params) in
           check "insertion_target" tree ~got:(pid_opt (insertion_target i)) g;
           tests)
         trees)
      "O(gap)"
  in
  let find_live_node i =
    Topology.find_live_node ~b:0 (tree_at i) status ~start:any.(i)
  in
  let find =
    row "find_live_node"
      (time_per_call find_live_node idx)
      (Array.map
         (fun i ->
           (* The start's own bit, then the scan strictly below it. *)
           let start = any.(i) and tree = tree_at i in
           let g, tests =
             if Status_word.is_live status start then (vid tree start, 0)
             else scan_down status tree (vid tree start - 1)
           in
           check "find_live_node" tree ~got:(pid_opt (find_live_node i)) g;
           1 + tests)
         idx)
      "O(gap)"
  in
  let next_hop i =
    Topology.next_hop ~b:0 (tree_at i) status (Pid.to_int live_starts.(i))
  in
  let hop =
    row "next_hop"
      (time_per_call next_hop idx)
      (Array.map
         (fun i ->
           let q, tests = hop_tests status (tree_at i) live_starts.(i) in
           check "next_hop" (tree_at i) ~got:(next_hop i) q;
           tests)
         idx)
      "O(m) climb + O(gap) when root dead"
  in
  let child name ~skip_all =
    let first_child i =
      Topology.first_child ~b:0 (tree_at i) status
        ~skip:(fun _ -> skip_all)
        live_starts.(i)
    in
    row name
      (time_per_call first_child idx)
      (Array.map
         (fun i ->
           let tree = tree_at i and tests = ref 0 in
           vid tree live_starts.(i)
           |> frontier_tests status tree m ~skip_all tests (-1)
           |> check name tree ~got:(first_child i);
           !tests)
         idx)
      "O(F)"
  in
  let get i = Ops.get cluster ~origin:live_starts.(i) ~key:keys.(i land 63) in
  [
    insertion;
    find;
    hop;
    child "first_child" ~skip_all:false;
    child "first_child (skip all)" ~skip_all:true;
    row "Ops.get (hops)" (time_per_call get idx)
      (Array.map (fun i -> (get i).Ops.hops) idx)
      "O(m) hops";
  ]

let run () =
  let quick = Sys.getenv_opt "LESSLOG_BENCH_QUICK" = Some "1" in
  let m = if quick then 14 else 20 in
  Printf.printf "bench sparse: dead-aware navigation at m = %d (%d slots)\n" m
    (1 lsl m);
  print_endline "------------------------------------------------------------";
  Printf.printf "%-10s %6s  %-24s %9s %12s %10s  %s\n" "layout" "live" "query"
    "ns/call" "tests mean" "tests max" "DESIGN 6 bound";
  let json = ref [] in
  List.iter
    (fun clustered ->
      List.iter
        (fun density ->
          let layout = if clustered then "clustered" else "uniform" in
          let rows = probe ~m ~clustered ~density ~seed:7 in
          List.iter
            (fun r ->
              Printf.printf "%-10s %5.0f%%  %-24s %9.1f %12.1f %10d  %s\n%!"
                layout (100.0 *. density) r.query r.ns r.mean r.max r.bound;
              let name =
                Printf.sprintf "sparse/m%d/%s/%g/%s" m layout density r.query
              in
              json :=
                (name ^ "/tests_max", float_of_int r.max)
                :: (name ^ "/tests_mean", r.mean)
                :: (name ^ "/ns", r.ns)
                :: !json)
            rows)
        [ 0.5; 0.1; 0.01 ])
    [ false; true ];
  Bench_json.write ~path:(out_file "BENCH_sparse.json") (List.rev !json);
  Printf.printf "wrote %s\n" (out_file "BENCH_sparse.json")
