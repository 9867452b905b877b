module Histogram = Lesslog_metrics.Histogram
module Bench_json = Lesslog_report.Bench_json
module Trace = Lesslog_trace.Trace

module Registry = struct
  type counter = { c_name : string; mutable c : int }
  type gauge = { g_name : string; mutable g : float }
  type timer = { t_name : string; mutable hist : Histogram.t }

  type entry = C of counter | G of gauge | T of timer

  type t = { entries : (string, entry) Hashtbl.t }

  let create () = { entries = Hashtbl.create 64 }

  let kind_clash name =
    invalid_arg
      (Printf.sprintf "Obs.Registry: %S already registered as another kind" name)

  let counter t name =
    match Hashtbl.find_opt t.entries name with
    | Some (C c) -> c
    | Some _ -> kind_clash name
    | None ->
        let c = { c_name = name; c = 0 } in
        Hashtbl.add t.entries name (C c);
        c

  let gauge t name =
    match Hashtbl.find_opt t.entries name with
    | Some (G g) -> g
    | Some _ -> kind_clash name
    | None ->
        let g = { g_name = name; g = 0.0 } in
        Hashtbl.add t.entries name (G g);
        g

  let timer_backed t name hist =
    match Hashtbl.find_opt t.entries name with
    | Some (T tm) ->
        tm.hist <- hist;
        tm
    | Some _ -> kind_clash name
    | None ->
        let tm = { t_name = name; hist } in
        Hashtbl.add t.entries name (T tm);
        tm

  let add c n = c.c <- c.c + n
  let value c = c.c
  let set g v = g.g <- v
  let read g = g.g

  type snapshot = {
    name : string;
    kind : [ `Counter | `Gauge | `Timer ];
    count : int;
    value : float;
    p50 : float;
    p99 : float;
    max_v : float;
  }

  let snapshot_of = function
    | C c ->
        { name = c.c_name; kind = `Counter; count = c.c;
          value = float_of_int c.c; p50 = nan; p99 = nan; max_v = nan }
    | G g ->
        { name = g.g_name; kind = `Gauge; count = 0; value = g.g; p50 = nan;
          p99 = nan; max_v = nan }
    | T tm ->
        let n = Histogram.count tm.hist in
        let q p = if n = 0 then nan else Histogram.quantile tm.hist p in
        { name = tm.t_name; kind = `Timer; count = n;
          value = Histogram.mean tm.hist; p50 = q 0.5; p99 = q 0.99;
          max_v = (if n = 0 then nan else Histogram.max_value tm.hist) }

  let snapshot t =
    Hashtbl.fold (fun _ e acc -> snapshot_of e :: acc) t.entries []
    |> List.sort (fun a b -> String.compare a.name b.name)

  let reset t =
    Hashtbl.iter
      (fun _ e ->
        match e with
        | C c -> c.c <- 0
        | G g -> g.g <- 0.0
        | T tm -> tm.hist <- Histogram.create ())
      t.entries

  let to_json_pairs t =
    List.concat_map
      (fun s ->
        match s.kind with
        | `Counter | `Gauge -> [ (s.name, s.value) ]
        | `Timer ->
            [
              (s.name ^ "/count", float_of_int s.count);
              (s.name ^ "/mean", s.value);
              (s.name ^ "/p50", s.p50);
              (s.name ^ "/p99", s.p99);
              (s.name ^ "/max", s.max_v);
            ])
      (snapshot t)

  let to_json t = Bench_json.to_string (to_json_pairs t)
end

module Span = struct
  (* Interleaved flat storage with bit-packed side data: a span is five
     adjacent words in one int array, so recording one costs five word
     writes and allocates nothing.

     Packed words:
       meta = name | origin << 10 | attempt << 34
       loc  = hops | (server + 1) << 6        (0 = fault)
     which bounds span names at 1024, origins and servers at 2^24 (the
     simulators' own wire-format limit), hops at 63 and attempts at 255;
     out-of-range hops/attempts are clamped, not wrapped. *)
  let name_bits = 10
  let name_limit = 1 lsl name_bits
  let span_origin_bits = 24
  let span_origin_mask = (1 lsl span_origin_bits) - 1
  let attempt_shift = name_bits + span_origin_bits
  let attempt_mask = 0xFF
  let span_hops_bits = 6
  let span_hops_mask = (1 lsl span_hops_bits) - 1

  let clamp v mask = if v < 0 then 0 else if v > mask then mask else v

  let pack_meta ~name ~origin ~attempt =
    name
    lor ((origin land span_origin_mask) lsl name_bits)
    lor (clamp attempt attempt_mask lsl attempt_shift)

  let pack_loc ~server ~hops =
    clamp hops span_hops_mask
    lor ((if server < 0 then 0 else (server land span_origin_mask) + 1)
        lsl span_hops_bits)

  (* Timestamps are held as integer nanoseconds of simulated time: one
     word instead of an unboxed float lets a whole record live in one
     flat buffer, and a 63-bit count of nanoseconds covers ~292 years of
     simulated clock. *)
  let ns_of_s s = int_of_float (s *. 1e9)
  let s_of_ns ns = float_of_int ns *. 1e-9

  (* The two buffers are int bigarrays, not int arrays: bigarray data
     lives outside the OCaml heap, so the megabyte-scale ring is never
     walked by the major GC's mark pass (an int [array] is a scannable
     block — keeping one this large costs every collection), and access
     with a statically-known kind compiles to a bare load/store. *)
  type ibuf = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

  let ibuf n init : ibuf =
    let b = Bigarray.Array1.create Bigarray.Int Bigarray.c_layout n in
    Bigarray.Array1.fill b init;
    b

  type sink = {
    mutable names : string array;
    mutable n_names : int;
    (* the ring: 5 words per span — id, meta, loc, start_ns, dur_ns —
       write position = (written land ring_mask) * 5 *)
    ring_mask : int;
    ring : ibuf;
    mutable written : int;
    mutable completed : int;
        (* spans recorded, merged sources' included; [written] counts
           only what reached this ring *)
  }

  let pow2_at_least n =
    let rec go p = if p >= n then p else go (p * 2) in
    go 1

  let create_sink ?(capacity = 16384) () =
    if capacity <= 0 then
      invalid_arg "Obs.Span.create_sink: capacity must be positive";
    let rc = pow2_at_least capacity in
    {
      names = Array.make 8 "";
      n_names = 0;
      ring_mask = rc - 1;
      ring = ibuf (rc * 5) 0;
      written = 0;
      completed = 0;
    }

  let intern t name =
    let rec find i = if i = t.n_names then -1 else if t.names.(i) = name then i else find (i + 1) in
    match find 0 with
    | i when i >= 0 -> i
    | _ ->
        if t.n_names = name_limit then
          invalid_arg "Obs.Span.intern: too many span names";
        if t.n_names = Array.length t.names then begin
          let grown = Array.make (2 * t.n_names) "" in
          Array.blit t.names 0 grown 0 t.n_names;
          t.names <- grown
        end;
        t.names.(t.n_names) <- name;
        t.n_names <- t.n_names + 1;
        t.n_names - 1

  (* The write position is masked, so every index is in bounds by
     construction; unsafe accesses keep the per-span cost down to bare
     word writes. *)
  let push t ~id ~meta ~loc ~start_ns ~dur_ns =
    let w = (t.written land t.ring_mask) * 5 in
    Bigarray.Array1.unsafe_set t.ring w id;
    Bigarray.Array1.unsafe_set t.ring (w + 1) meta;
    Bigarray.Array1.unsafe_set t.ring (w + 2) loc;
    Bigarray.Array1.unsafe_set t.ring (w + 3) start_ns;
    Bigarray.Array1.unsafe_set t.ring (w + 4) dur_ns;
    t.written <- t.written + 1

  let emit t ~name ~id ~origin ~at ~dur ~server ~hops ~attempt =
    t.completed <- t.completed + 1;
    push t ~id
      ~meta:(pack_meta ~name ~origin ~attempt)
      ~loc:(pack_loc ~server ~hops)
      ~start_ns:(ns_of_s at) ~dur_ns:(ns_of_s dur)

  let completed t = t.completed
  let retained t = min t.written (t.ring_mask + 1)

  (* The ring positions [first t, t.written) hold the retained spans,
     oldest first. *)
  let first t = max 0 (t.written - (t.ring_mask + 1))

  let iter t f =
    for k = first t to t.written - 1 do
      let i = (k land t.ring_mask) * 5 in
      let meta = t.ring.{i + 1} and loc = t.ring.{i + 2} in
      let sv = loc lsr span_hops_bits in
      f
        (Trace.Event.Span
           {
             at = s_of_ns t.ring.{i + 3};
             dur = s_of_ns t.ring.{i + 4};
             name = t.names.(meta land (name_limit - 1));
             id = t.ring.{i};
             origin = (meta lsr name_bits) land span_origin_mask;
             server = (if sv = 0 then None else Some (sv - 1));
             hops = loc land span_hops_mask;
             attempt = meta lsr attempt_shift;
           })
    done

  let to_events t =
    let acc = ref [] in
    iter t (fun e -> acc := e :: !acc);
    List.rev !acc

  (* Append [src]'s retained spans (oldest first) onto [into]'s ring,
     re-interning names — the export-time merge for per-shard/per-domain
     sinks. Raw ring words are copied with only the name field of [meta]
     rewritten, so packed origin/attempt/loc survive bit for bit; the
     ring bound applies as if the spans had been recorded on [into]
     directly. Merging shard sinks in a fixed (shard-id) order keeps the
     combined ring deterministic at any domain count. The lifetime count
     grows by the source's, overwritten spans included. *)
  let merge_into ~into src =
    for k = first src to src.written - 1 do
      let i = (k land src.ring_mask) * 5 in
      let meta = src.ring.{i + 1} in
      let name = intern into src.names.(meta land (name_limit - 1)) in
      push into ~id:src.ring.{i}
        ~meta:(meta land lnot (name_limit - 1) lor name)
        ~loc:src.ring.{i + 2} ~start_ns:src.ring.{i + 3}
        ~dur_ns:src.ring.{i + 4}
    done;
    into.completed <- into.completed + src.completed

  (* Non-finite numbers have no JSON literal; a span can only carry one
     through a corrupted clock, and 0 keeps the file loadable. *)
  let json_num x = if Float.is_finite x then Printf.sprintf "%.3f" x else "0"

  let to_chrome_json t =
    let buf = Buffer.create (4096 + (retained t * 96)) in
    Buffer.add_string buf "{\"traceEvents\":[";
    let first_row = ref true in
    for k = first t to t.written - 1 do
      let i = (k land t.ring_mask) * 5 in
      let meta = t.ring.{i + 1} and loc = t.ring.{i + 2} in
      let sv = loc lsr span_hops_bits in
      if !first_row then first_row := false else Buffer.add_char buf ',';
      Buffer.add_string buf "\n{\"name\":\"";
      Buffer.add_string buf (Bench_json.escape t.names.(meta land (name_limit - 1)));
      Buffer.add_string buf "\",\"cat\":\"lesslog\",\"ph\":\"X\",\"ts\":";
      (* trace_event timestamps are microseconds; the simulated clock is
         nanoseconds internally *)
      Buffer.add_string buf (json_num (float_of_int t.ring.{i + 3} /. 1e3));
      Buffer.add_string buf ",\"dur\":";
      Buffer.add_string buf (json_num (float_of_int t.ring.{i + 4} /. 1e3));
      Buffer.add_string buf ",\"pid\":0,\"tid\":";
      Buffer.add_string buf
        (string_of_int ((meta lsr name_bits) land span_origin_mask));
      Buffer.add_string buf ",\"args\":{\"id\":";
      Buffer.add_string buf (string_of_int t.ring.{i});
      Buffer.add_string buf ",\"server\":";
      Buffer.add_string buf
        (if sv = 0 then "null" else string_of_int (sv - 1));
      Buffer.add_string buf ",\"hops\":";
      Buffer.add_string buf (string_of_int (loc land span_hops_mask));
      Buffer.add_string buf ",\"attempt\":";
      Buffer.add_string buf (string_of_int (meta lsr attempt_shift));
      Buffer.add_string buf "}}"
    done;
    Buffer.add_string buf "\n],\"displayTimeUnit\":\"ms\"}\n";
    Buffer.contents buf

  let write_chrome ~path t =
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc (to_chrome_json t))
end

type t = { registry : Registry.t; spans : Span.sink }

let create ?span_capacity () =
  {
    registry = Registry.create ();
    spans = Span.create_sink ?capacity:span_capacity ();
  }
