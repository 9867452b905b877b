open Lesslog_id
module Engine = Lesslog_sim.Engine
module Rng = Lesslog_prng.Rng

type t = {
  engine : Engine.t;
  rng : Rng.t;
  latency : Latency.t;
  mutable loss : float;
  mutable filter : (src:Pid.t -> dst:Pid.t -> bool) option;
  mutable sent : int;
  mutable delivered : int;
  mutable dropped : int;
  (* one engine handler for every delivery, src/dst bit-packed into the
     event's [a] word, node liveness as a byte per slot *)
  mutable deliver_h : int;
  mutable packed_recv : (src:Pid.t -> dst:Pid.t -> int -> float -> unit) option;
  attached : Bytes.t;
}

(* Written so that NaN fails too. *)
let check_loss ~who p =
  if not (p >= 0.0 && p < 1.0) then invalid_arg (who ^ ": loss must be in [0, 1)")

let dst_bits = 24
let dst_mask = (1 lsl dst_bits) - 1

let create ~engine ~rng ?(latency = Latency.default) ?(loss = 0.0) params =
  check_loss ~who:"Overlay.create" loss;
  Latency.validate ~who:"Overlay.create" latency;
  let space = Params.space params in
  if space > dst_mask + 1 then invalid_arg "Overlay.create: space too large";
  let t =
    {
      engine;
      rng;
      latency;
      loss;
      filter = None;
      sent = 0;
      delivered = 0;
      dropped = 0;
      deliver_h = -1;
      packed_recv = None;
      attached = Bytes.make space '\000';
    }
  in
  t.deliver_h <-
    Engine.register_handler engine (fun a b x ->
        let dst = a land dst_mask and src = a lsr dst_bits in
        if Bytes.unsafe_get t.attached dst = '\001' then begin
          match t.packed_recv with
          | Some recv ->
              t.delivered <- t.delivered + 1;
              recv ~src:(Pid.unsafe_of_int src) ~dst:(Pid.unsafe_of_int dst) b x
          | None -> t.dropped <- t.dropped + 1
        end
        else t.dropped <- t.dropped + 1);
  t

let set_loss t loss =
  check_loss ~who:"Overlay.set_loss" loss;
  t.loss <- loss

let loss t = t.loss

let set_filter t f = t.filter <- f

let link_up t ~src ~dst =
  match t.filter with None -> true | Some f -> f ~src ~dst

let set_packed_recv t f = t.packed_recv <- f

let attach t p = Bytes.set t.attached (Pid.to_int p) '\001'
let detach t p = Bytes.set t.attached (Pid.to_int p) '\000'

let send_packed t ~src ~dst ~b ~x =
  t.sent <- t.sent + 1;
  if not (link_up t ~src ~dst) then t.dropped <- t.dropped + 1
  else if t.loss > 0.0 && Rng.bernoulli t.rng ~p:t.loss then
    t.dropped <- t.dropped + 1
  else begin
    let delay = Latency.sample t.latency t.rng in
    Engine.post t.engine ~delay ~h:t.deliver_h
      ~a:((Pid.to_int src lsl dst_bits) lor Pid.to_int dst)
      ~b ~x
  end

let messages_sent t = t.sent
let messages_delivered t = t.delivered
let messages_dropped t = t.dropped
