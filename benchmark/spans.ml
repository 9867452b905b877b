(* The benchmark's own span recorder: one span around each call the
   benchmark makes into a layer (set-up, the simulator call, each probe),
   kept in memory and written out as Chrome trace_event JSON when the
   benchmark ends. Nothing inside lib/ is traced. *)

type span = {
  id : int;
  name : string;
  run : int;  (** Workload-run id: 0 warm-up, 1.. timed, then traced. *)
  parent : int;  (** Enclosing span id, -1 at top level. *)
  start_ns : int;
  mutable end_ns : int;
}

type t = {
  mutable finished : span list;  (** Newest first. *)
  mutable open_ : span list;  (** Innermost first. *)
  mutable next_id : int;
  mutable run : int;
}

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let create () = { finished = []; open_ = []; next_id = 0; run = 0 }
let set_run t run = t.run <- run
let seconds s = float_of_int (s.end_ns - s.start_ns) *. 1e-9

let record t name f =
  let parent = match t.open_ with s :: _ -> s.id | [] -> -1 in
  let s =
    { id = t.next_id; name; run = t.run; parent; start_ns = now_ns (); end_ns = 0 }
  in
  t.next_id <- t.next_id + 1;
  t.open_ <- s :: t.open_;
  let close () =
    s.end_ns <- now_ns ();
    t.open_ <- List.tl t.open_;
    t.finished <- s :: t.finished
  in
  let v = Fun.protect ~finally:close f in
  (v, seconds s)

(* The most recently finished span of that name. *)
let last_span t name = List.find (fun s -> s.name = name) t.finished
let last t name = seconds (last_span t name)

let spans t = List.sort (fun a b -> compare a.start_ns b.start_ns) t.finished

(* Self time = duration minus the part covered by child spans. Spans of
   one recorder nest strictly and children run one after another, so the
   covered part is the sum of the children's durations. *)
let self_seconds t =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (seconds s +. Option.value ~default:0.0 (Hashtbl.find_opt child s.parent)))
    t.finished;
  List.map
    (fun s ->
      (s, seconds s -. Option.value ~default:0.0 (Hashtbl.find_opt child s.id)))
    (spans t)

(* Per-name totals: (name, count, total s, self s), largest self first. *)
let table t =
  let acc = Hashtbl.create 16 in
  List.iter
    (fun (s, self) ->
      let n, total, selfs =
        Option.value ~default:(0, 0.0, 0.0) (Hashtbl.find_opt acc s.name)
      in
      Hashtbl.replace acc s.name (n + 1, total +. seconds s, selfs +. self))
    (self_seconds t);
  Hashtbl.fold (fun name (n, total, self) l -> (name, n, total, self) :: l) acc []
  |> List.sort (fun (_, _, _, a) (_, _, _, b) -> Float.compare b a)

let print_table t =
  Printf.printf "%-28s %6s %12s %12s\n" "span (layer)" "count" "total_s" "self_s";
  List.iter
    (fun (name, n, total, self) ->
      Printf.printf "%-28s %6d %12.6f %12.6f\n" name n total self)
    (table t)

(* One complete ("ph": "X") event per line, so a parent process can merge
   the files of several workloads by lines. *)
let chrome_lines t ~pid ~workload =
  match spans t with
  | [] -> []
  | first :: _ as all ->
      let us ns = Exact_json.Float (float_of_int ns /. 1000.0) in
      List.map
        (fun s ->
          Exact_json.(
            to_string
              (Obj
                 [
                   ("name", String s.name);
                   ("cat", String workload);
                   ("ph", String "X");
                   ("ts", us (s.start_ns - first.start_ns));
                   ("dur", us (s.end_ns - s.start_ns));
                   ("pid", Int pid);
                   ("tid", Int s.run);
                   ( "args",
                     Obj
                       [ ("id", Int s.id); ("parent", Int s.parent);
                         ("run", Int s.run) ] );
                 ])))
        all

let write_chrome ~path lines =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
      output_string oc (String.concat ",\n" lines);
      output_string oc "\n]}\n")

(* The event lines of a file written by [write_chrome]. *)
let read_chrome_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | line ->
            let n = String.length line in
            if n > 0 && line.[0] = '{' && line.[n - 1] <> '[' then
              let line =
                if line.[n - 1] = ',' then String.sub line 0 (n - 1) else line
              in
              go (line :: acc)
            else go acc
        | exception End_of_file -> List.rev acc
      in
      go [])
