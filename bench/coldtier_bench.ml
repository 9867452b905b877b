(* `bench coldtier`: the erasure-coded cold tier against full
   replication, byte-accurate.

   Three gates:

   1. Amplification (always enforced): the adaptive lifecycle (flash
      crowd, long idle stretch, mid-calm double failure, re-heat) run
      twice through the identical dynamic-RF policy and byte ledger —
      demotion armed vs disarmed. The hybrid's time-averaged stored
      bytes must come in at least 30% below the full-replication
      baseline, at equal loss (within 0.05): the (10, 4) code keeps a
      1.4x footprint through the calm where the rf_min = 3 durability
      floor keeps 3x. The hybrid must actually cycle (>= 1 demotion,
      >= 1 promotion, coded serves during the re-heat) and must not
      lose the payload.

   2. Repair traffic (always enforced): the mid-calm failures hit
      fragment holders, so the hybrid's failure-triggered repair bytes
      must be positive and bounded by rebuilding every parity's worth
      of fragments plus the two relocated copies the baseline would
      move — repair is k reads and one write per missing fragment, not
      a full re-replication.

   3. Determinism (always enforced, the CI smoke gate): the sharded
      simulator with the cold tier armed re-run at 1, 2, 4 and 8
      domains must reproduce the digest and the entire cold ledger bit
      for bit — every tier transition runs in sequential barrier
      globals.

   Everything lands in BENCH_coldtier.json ($LESSLOG_BENCH_OUT or the
   working directory); LESSLOG_BENCH_QUICK=1 shrinks m and the
   durations for CI smoke. *)

module E = Lesslog_harness.Experiments
module Des_sim = Lesslog_des.Des_sim
module Control_plane = Lesslog_des.Control_plane
module Pdes_sim = Lesslog_des.Pdes_sim
module Bench_json = Lesslog_report.Bench_json

let out_file name =
  let dir = Option.value (Sys.getenv_opt "LESSLOG_BENCH_OUT") ~default:"." in
  Filename.concat dir name

let failed = ref false

let fail fmt =
  failed := true;
  Printf.eprintf fmt

(* Gates 1 and 2: amplification and repair bytes on the lifecycle. *)
let lifecycle_gates ~quick =
  let m = if quick then 9 else 10 in
  let calm_duration = if quick then 10.0 else 12.0 in
  let code_k = 10 and code_r = 4 and file_bytes = 1 lsl 20 in
  let points =
    E.coldtier_run ~m ~calm_duration ~code_k ~code_r ~file_bytes ()
  in
  print_endline (E.render_coldtier points);
  let full, hybrid =
    match points with
    | [ f; h ] -> (f, h)
    | _ -> failwith "coldtier_run: expected [full; hybrid]"
  in
  let ratio = hybrid.E.ct_mean_bytes /. full.E.ct_mean_bytes in
  Printf.printf
    "amplification: full %.2fx, hybrid %.2fx, ratio %.3f (gate <= 0.70)\n%!"
    full.E.ct_amplification hybrid.E.ct_amplification ratio;
  if ratio > 0.70 then
    fail
      "bench coldtier: FAIL: hybrid stores %.3fx the baseline's bytes — \
       less than 30%% saved\n"
      ratio;
  let loss_gap = Float.abs (hybrid.E.ct_loss -. full.E.ct_loss) in
  if loss_gap > 0.05 then
    fail
      "bench coldtier: FAIL: loss gap %.4f between hybrid (%.4f) and full \
       (%.4f) exceeds 0.05\n"
      loss_gap hybrid.E.ct_loss full.E.ct_loss;
  if hybrid.E.ct_demotions < 1 || hybrid.E.ct_promotions < 1 then
    fail
      "bench coldtier: FAIL: hybrid never cycled (demotions %d, \
       promotions %d)\n"
      hybrid.E.ct_demotions hybrid.E.ct_promotions;
  if hybrid.E.ct_coded_serves < 1 then
    fail "bench coldtier: FAIL: no request was served from fragments\n";
  if hybrid.E.ct_lost then
    fail "bench coldtier: FAIL: the coded payload was lost\n";
  let frag_bytes = (file_bytes + code_k - 1) / code_k in
  let repair_bound =
    (code_r * (code_k + 1) * frag_bytes) + (2 * file_bytes)
  in
  Printf.printf
    "repair: hybrid %d bytes (gate: positive, <= %d)\n%!"
    hybrid.E.ct_repair_bytes repair_bound;
  if hybrid.E.ct_repair_bytes <= 0 then
    fail
      "bench coldtier: FAIL: the mid-calm failures triggered no fragment \
       repair\n";
  if hybrid.E.ct_repair_bytes > repair_bound then
    fail
      "bench coldtier: FAIL: repair moved %d bytes, above the %d-byte \
       rebuild bound\n"
      hybrid.E.ct_repair_bytes repair_bound;
  (full, hybrid, m)

(* Gate 3: the cold ledger survives the domain count. *)
let determinism_gate ~quick =
  let m = if quick then 7 else 8 in
  let duration = if quick then 4.0 else 6.0 in
  let point domains = E.coldtier_pdes ~m ~domains ~duration () in
  let reference = point 1 in
  let rc = Option.get reference.Pdes_sim.cold in
  Printf.printf
    "determinism (cold tier): m=%d, digest at 1 domain = %d, %d demotions\n%!"
    m reference.Pdes_sim.digest rc.Control_plane.demotions;
  if rc.Control_plane.demotions < 1 || rc.Control_plane.coded_serves < 1 then
    fail
      "bench coldtier: FAIL: determinism workload never exercised the \
       tier (demotions %d, coded serves %d)\n"
      rc.Control_plane.demotions rc.Control_plane.coded_serves;
  List.iter
    (fun domains ->
      let p = point domains in
      let pc = Option.get p.Pdes_sim.cold in
      let same =
        p.Pdes_sim.digest = reference.Pdes_sim.digest
        && p.Pdes_sim.served = reference.Pdes_sim.served
        && p.Pdes_sim.events = reference.Pdes_sim.events
        && pc = rc
      in
      Printf.printf "  %d domains: digest %d  coded serves %d  %s\n%!"
        domains p.Pdes_sim.digest pc.Control_plane.coded_serves
        (if same then "OK" else "DIVERGED");
      if not same then
        fail
          "bench coldtier: FAIL: cold-tier results at %d domains diverge \
           from 1 domain (digest %d vs %d)\n"
          domains p.Pdes_sim.digest reference.Pdes_sim.digest)
    [ 2; 4; 8 ];
  reference

let run () =
  let quick = Sys.getenv_opt "LESSLOG_BENCH_QUICK" = Some "1" in
  print_endline "bench coldtier: erasure-coded cold tier vs full replication";
  print_endline "-----------------------------------------------------------";
  let full, hybrid, m = lifecycle_gates ~quick in
  let reference = determinism_gate ~quick in
  let rc = Option.get reference.Pdes_sim.cold in
  Bench_json.write
    ~path:(out_file "BENCH_coldtier.json")
    [
      ("coldtier/m", float_of_int m);
      ("coldtier/full/amplification", full.E.ct_amplification);
      ("coldtier/full/mean_bytes", full.E.ct_mean_bytes);
      ("coldtier/full/loss", full.E.ct_loss);
      ("coldtier/full/bytes_moved", float_of_int full.E.ct_bytes_moved);
      ("coldtier/full/repair_bytes", float_of_int full.E.ct_repair_bytes);
      ("coldtier/hybrid/amplification", hybrid.E.ct_amplification);
      ("coldtier/hybrid/mean_bytes", hybrid.E.ct_mean_bytes);
      ("coldtier/hybrid/loss", hybrid.E.ct_loss);
      ("coldtier/hybrid/bytes_moved", float_of_int hybrid.E.ct_bytes_moved);
      ("coldtier/hybrid/repair_bytes", float_of_int hybrid.E.ct_repair_bytes);
      ("coldtier/hybrid/demotions", float_of_int hybrid.E.ct_demotions);
      ("coldtier/hybrid/promotions", float_of_int hybrid.E.ct_promotions);
      ("coldtier/hybrid/coded_serves", float_of_int hybrid.E.ct_coded_serves);
      ( "coldtier/hybrid/saved_fraction",
        1.0 -. (hybrid.E.ct_mean_bytes /. full.E.ct_mean_bytes) );
      ("coldtier/determinism_digest", float_of_int reference.Pdes_sim.digest);
      ("coldtier/determinism_demotions", float_of_int rc.Control_plane.demotions);
      ( "coldtier/determinism_coded_serves",
        float_of_int rc.Control_plane.coded_serves );
    ];
  Printf.printf "bench coldtier: wrote %s\n%!" (out_file "BENCH_coldtier.json");
  if !failed then exit 1;
  print_endline "bench coldtier: all gates passed"
