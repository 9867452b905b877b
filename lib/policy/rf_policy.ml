module Packed_bits = Lesslog_bits.Packed_bits

type class_ = Hot | Warm | Cold

let class_name = function Hot -> "hot" | Warm -> "warm" | Cold -> "cold"

type config = {
  interval : float;
  rf_min : int;
  rf_max : int;
  hot_factor : float;
  cold_factor : float;
  history : float;
  capacity : float option;
}

let default_config =
  {
    interval = 1.0;
    rf_min = 1;
    rf_max = 64;
    hot_factor = 1.5;
    cold_factor = 0.5;
    history = 0.5;
    capacity = None;
  }

type decision = {
  file : int;
  cls : class_;
  ac : int;
  dnc : int;
  pd : float;
  rf_before : int;
  rf_after : int;
}

type t = {
  config : config;
  nodes : int;
  nfiles : int;
  ac : int array;  (* interval access count per file *)
  dnc : int array;  (* interval distinct-node count per file *)
  seen : Packed_bits.t array;  (* per-file accessed-node bitset *)
  touched : bool array;  (* files with interval activity, for cheap reset *)
  rf_ : int array;  (* replica factor, carried across intervals *)
  cls : class_ array;  (* last interval's classification *)
  mutable reference : float;  (* EMA of the mean PD over accessed files *)
  mutable intervals_closed : int;
}

let create ?(config = default_config) ?rf0 ~nodes ~files () =
  if nodes <= 0 then invalid_arg "Rf_policy.create: nodes";
  if files <= 0 then invalid_arg "Rf_policy.create: files";
  if not (config.interval > 0.0) then invalid_arg "Rf_policy.create: interval";
  if config.rf_min < 1 then invalid_arg "Rf_policy.create: rf_min";
  if config.rf_max < config.rf_min then invalid_arg "Rf_policy.create: rf_max";
  if config.cold_factor > config.hot_factor then
    invalid_arg "Rf_policy.create: cold_factor > hot_factor";
  if not (config.history >= 0.0 && config.history < 1.0) then
    invalid_arg "Rf_policy.create: history";
  (match config.capacity with
  | Some c when not (c > 0.0) -> invalid_arg "Rf_policy.create: capacity"
  | _ -> ());
  let rf0 = Option.value rf0 ~default:config.rf_min in
  if rf0 < config.rf_min || rf0 > config.rf_max then
    invalid_arg "Rf_policy.create: rf0";
  {
    config;
    nodes;
    nfiles = files;
    ac = Array.make files 0;
    dnc = Array.make files 0;
    seen = Array.init files (fun _ -> Packed_bits.create nodes);
    touched = Array.make files false;
    rf_ = Array.make files rf0;
    cls = Array.make files Warm;
    reference = 0.0;
    intervals_closed = 0;
  }

let config t = t.config
let files t = t.nfiles
let nodes t = t.nodes

let record t ~file ~node =
  if file < 0 || file >= t.nfiles then invalid_arg "Rf_policy.record: file";
  if node < 0 || node >= t.nodes then invalid_arg "Rf_policy.record: node";
  t.ac.(file) <- t.ac.(file) + 1;
  t.touched.(file) <- true;
  let seen = t.seen.(file) in
  if not (Packed_bits.get seen node) then begin
    Packed_bits.set seen node;
    t.dnc.(file) <- t.dnc.(file) + 1
  end

let note t ~file ~ac ~dnc =
  if file < 0 || file >= t.nfiles then invalid_arg "Rf_policy.note: file";
  if ac < 0 || dnc < 0 then invalid_arg "Rf_policy.note: negative tally";
  if ac > 0 || dnc > 0 then t.touched.(file) <- true;
  t.ac.(file) <- t.ac.(file) + ac;
  t.dnc.(file) <- min t.nodes (t.dnc.(file) + dnc)

let rf t ~file =
  if file < 0 || file >= t.nfiles then invalid_arg "Rf_policy.rf: file";
  t.rf_.(file)

let classification t ~file =
  if file < 0 || file >= t.nfiles then
    invalid_arg "Rf_policy.classification: file";
  t.cls.(file)

let reference_pd t = t.reference

let pd_of t ~file =
  let w = float_of_int t.dnc.(file) /. float_of_int t.nodes in
  w *. float_of_int t.ac.(file)

let end_interval t =
  (* Mean PD over the files accessed this interval — the system-wide
     popularity level the dynamic thresholds hang off. *)
  let sum = ref 0.0 and accessed = ref 0 in
  for f = 0 to t.nfiles - 1 do
    if t.ac.(f) > 0 then begin
      sum := !sum +. pd_of t ~file:f;
      incr accessed
    end
  done;
  let mean = if !accessed = 0 then 0.0 else !sum /. float_of_int !accessed in
  t.reference <-
    (if t.intervals_closed = 0 then mean
     else
       (t.config.history *. t.reference)
       +. ((1.0 -. t.config.history) *. mean));
  let hot_at = t.config.hot_factor *. t.reference in
  let cold_at = t.config.cold_factor *. t.reference in
  let decisions =
    Array.init t.nfiles (fun f ->
        let ac = t.ac.(f) and dnc = t.dnc.(f) in
        let pd = pd_of t ~file:f in
        let cls =
          match t.config.capacity with
          | None ->
              (* Pure PD thresholds (the classic scheme). A silent
                 interval is Cold regardless (a zero-activity system
                 would otherwise pin everything Warm at reference 0). *)
              if ac = 0 then Cold
              else if pd > hot_at then Hot
              else if pd < cold_at then Cold
              else Warm
          | Some c ->
              (* Capacity-aware mode: the access log sizes the replica
                 set to the observed rate — [need] replicas absorb this
                 interval's accesses at [c] each — and a file whose
                 weighted popularity clears the dynamic hot threshold
                 pre-provisions one replica of headroom. The pure-PD
                 thresholds degenerate on a one-file catalogue (the
                 file's PD {e is} the reference), so without this the
                 single-hot-file simulators could never grow or shed. *)
              let need =
                if ac = 0 then 0
                else
                  int_of_float
                    (Float.ceil
                       (float_of_int ac /. (t.config.interval *. c)))
              in
              let target = need + (if ac > 0 && pd > hot_at then 1 else 0) in
              if t.rf_.(f) < target then Hot
              else if t.rf_.(f) > target then Cold
              else Warm
        in
        let rf_before = t.rf_.(f) in
        let rf_after =
          match cls with
          | Hot -> min t.config.rf_max (rf_before + 1)
          | Cold -> max t.config.rf_min (rf_before - 1)
          | Warm -> rf_before
        in
        t.rf_.(f) <- rf_after;
        t.cls.(f) <- cls;
        { file = f; cls; ac; dnc; pd; rf_before; rf_after })
  in
  (* Reset interval tallies; only touched files pay the bitset clear. *)
  for f = 0 to t.nfiles - 1 do
    if t.touched.(f) then begin
      t.ac.(f) <- 0;
      t.dnc.(f) <- 0;
      Packed_bits.clear_all t.seen.(f);
      t.touched.(f) <- false
    end
  done;
  t.intervals_closed <- t.intervals_closed + 1;
  decisions
