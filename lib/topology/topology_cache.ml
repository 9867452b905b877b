open Lesslog_id
module Status_word = Lesslog_membership.Status_word
module Packed_bits = Lesslog_bits.Packed_bits

type entry = {
  status : Status_word.t;
  comp : int;
  mutable epoch : int;
  vids : Packed_bits.t;
  mutable max_live_vid : int;
  children : (int, Pid.t list) Hashtbl.t;
}

let broken_catch_up = ref false

type state = { mutable last : entry option; table : (int, entry) Hashtbl.t }

(* Domain-local: Lesslog_parallel.Par spawns real domains, and a shared
   table would race. Entries are pure derived state, so building them
   independently per domain is merely a little redundant work. *)
let dls =
  Domain.DLS.new_key (fun () -> { last = None; table = Hashtbl.create 16 })

(* comp < 2^max_width = 2^24, so (uid, comp) packs into one int key. *)
let key_of ~uid ~comp = (uid lsl Lesslog_bits.Bitops.max_width) lor comp

(* Keep runaway experiments (thousands of short-lived status words) from
   pinning dead entries; a reset only costs rebuilds. *)
let max_entries = 512

let rebuild e =
  Packed_bits.clear_all e.vids;
  let comp = e.comp in
  let vids = e.vids in
  Packed_bits.iter_set (Status_word.live_bits e.status) (fun p ->
      Packed_bits.set vids (p lxor comp));
  e.max_live_vid <-
    Packed_bits.first_set_at_or_below vids (Packed_bits.length vids - 1);
  Hashtbl.reset e.children;
  e.epoch <- Status_word.epoch e.status

(* Replay the deltas of epochs (e.epoch, now], at most ring_size of them.
   Each bit is re-synced to its PID's current liveness, so order and
   repeats within the window do not matter. A VID that joined above the
   old maximum is in the window, so the new maximum is the highest live
   VID at or below max(old maximum, every live replayed VID). *)
let catch_up e now =
  let status = e.status and comp = e.comp and vids = e.vids in
  let live = Status_word.live_bits status in
  let top = ref e.max_live_vid in
  for ep = e.epoch + (if !broken_catch_up then 2 else 1) to now do
    let p = Status_word.flipped status ep in
    let v = p lxor comp in
    if Packed_bits.get live p then begin
      Packed_bits.set vids v;
      if v > !top then top := v
    end
    else Packed_bits.clear vids v
  done;
  let top = !top in
  e.max_live_vid <-
    (if top < 0 || Packed_bits.get vids top then top
     else Packed_bits.first_set_at_or_below vids top);
  Hashtbl.reset e.children;
  e.epoch <- now

let make status ~comp =
  let space = Params.space (Status_word.params status) in
  let e =
    {
      status;
      comp;
      epoch = -1;
      vids = Packed_bits.create space;
      max_live_vid = -1;
      children = Hashtbl.create 16;
    }
  in
  rebuild e;
  e

let validate e =
  let now = Status_word.epoch e.status in
  if e.epoch <> now then
    if now - e.epoch <= Status_word.ring_size then catch_up e now
    else rebuild e;
  e

let get status ~comp =
  let s = Domain.DLS.get dls in
  match s.last with
  | Some e when e.status == status && e.comp = comp -> validate e
  | _ ->
      let k = key_of ~uid:(Status_word.uid status) ~comp in
      let e =
        match Hashtbl.find_opt s.table k with
        | Some e -> validate e
        | None ->
            if Hashtbl.length s.table >= max_entries then
              Hashtbl.reset s.table;
            let e = make status ~comp in
            Hashtbl.add s.table k e;
            e
      in
      s.last <- Some e;
      e
