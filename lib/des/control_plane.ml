module Rf_policy = Lesslog_policy.Rf_policy

type cold_tier = {
  code_k : int;
  code_r : int;
  file_bytes : int;
  demote_after : int;
}

let default_cold_tier =
  { code_k = 10; code_r = 4; file_bytes = 1 lsl 20; demote_after = 2 }

type cold_stats = {
  demotions : int;
  promotions : int;
  fragment_repairs : int;
  lost_cold : bool;
  coded_at_end : bool;
  coded_serves : int;
  bytes_stored_end : int;
  mean_bytes_stored : float;
  bytes_moved : int;
  repair_bytes : int;
}

type ledger = {
  tier : cold_tier;
  frag_bytes : int;
  mutable coded : bool;
  mutable servable : bool;
  mutable streak : int;
  mutable demotions : int;
  mutable promotions : int;
  mutable fragment_repairs : int;
  mutable lost : bool;
  mutable tier_bytes : int;
  mutable rebuild_bytes : int;
  mutable byte_seconds : float;
  mutable last_bytes : int;
  mutable last_sample_t : float;
}

type t = { policy : Rf_policy.t; ledger : ledger option }

let fail msg = invalid_arg ("Des_sim: " ^ msg)

let create ~nodes policy cold_tier =
  (match policy with
  | Some p when Rf_policy.nodes p <> nodes ->
      fail "policy accessor population <> cluster space"
  | _ -> ());
  match (policy, cold_tier) with
  | None, None -> None
  | None, Some _ -> fail "cold_tier needs a policy (its Cold verdicts)"
  | Some policy, None -> Some { policy; ledger = None }
  | Some policy, Some tier ->
      if tier.code_k < 1 || tier.code_r < 0 || tier.code_k + tier.code_r > 256
      then fail "invalid cold_tier code parameters";
      if tier.file_bytes <= 0 then fail "file_bytes must be > 0";
      if tier.demote_after < 1 then fail "demote_after must be >= 1";
      let ledger =
        {
          tier;
          frag_bytes = (tier.file_bytes + tier.code_k - 1) / tier.code_k;
          coded = false;
          servable = false;
          streak = 0;
          demotions = 0;
          promotions = 0;
          fragment_repairs = 0;
          lost = false;
          tier_bytes = 0;
          rebuild_bytes = 0;
          byte_seconds = 0.0;
          last_bytes = 0;
          last_sample_t = 0.0;
        }
      in
      Some { policy; ledger = Some ledger }

(* [demote_after] consecutive Cold verdicts demote the key to fragments;
   the first Hot verdict after that promotes it back. A refused
   demotion or promotion leaves the state as is and retries at the next
   qualifying tick. *)
let tier_step l p ~demote ~promote =
  let cls = Rf_policy.classification p ~file:0 in
  if not l.coded then begin
    (match cls with
    | Rf_policy.Cold -> l.streak <- l.streak + 1
    | Rf_policy.Hot | Rf_policy.Warm -> l.streak <- 0);
    if l.streak >= l.tier.demote_after then
      match demote l.tier with
      | None -> ()
      | Some fragments ->
          l.coded <- true;
          l.servable <- true;
          l.streak <- 0;
          l.demotions <- l.demotions + 1;
          (* The k + r fragment spreads cross the wire. *)
          l.tier_bytes <- l.tier_bytes + (fragments * l.frag_bytes)
  end
  else if cls = Rf_policy.Hot then
    match promote ~copies:(max 1 (Rf_policy.rf p ~file:0)) with
    | None -> ()
    | Some fan_out ->
        l.coded <- false;
        l.servable <- false;
        l.promotions <- l.promotions + 1;
        (* k fragments gathered to rebuild, then the copies fan out. *)
        l.tier_bytes <-
          l.tier_bytes
          + (l.tier.code_k * l.frag_bytes)
          + (fan_out * l.tier.file_bytes)

let ticks t ~duration =
  let interval = (Rf_policy.config t.policy).Rf_policy.interval in
  let rec build k acc =
    let at = float_of_int k *. interval in
    if at < duration then build (k + 1) (at :: acc) else List.rev acc
  in
  build 1 []

let tick t ~demote ~promote ~enforce =
  ignore (Rf_policy.end_interval t.policy);
  match t.ledger with
  | None -> enforce ()
  | Some l ->
      tier_step l t.policy ~demote ~promote;
      (* Fragments are not the RF enforcer's to manage. *)
      if not l.coded then enforce ()

let repaired l ~rebuilt ~lost =
  if rebuilt > 0 then begin
    l.fragment_repairs <- l.fragment_repairs + rebuilt;
    (* k fragment reads and one write per rebuilt fragment. *)
    let traffic = rebuilt * (l.tier.code_k + 1) * l.frag_bytes in
    l.rebuild_bytes <- l.rebuild_bytes + traffic;
    l.tier_bytes <- l.tier_bytes + traffic
  end;
  if lost then l.lost <- true

let fragments_live l n = l.servable <- l.coded && n >= l.tier.code_k

let sample l ~t ~copies ~fragments =
  l.byte_seconds <-
    l.byte_seconds +. (float_of_int l.last_bytes *. (t -. l.last_sample_t));
  l.last_sample_t <- t;
  l.last_bytes <- (copies * l.tier.file_bytes) + (fragments * l.frag_bytes)

let stats l ~copies_moved ~relocated ~coded_serves ~duration =
  {
    demotions = l.demotions;
    promotions = l.promotions;
    fragment_repairs = l.fragment_repairs;
    lost_cold = l.lost;
    coded_at_end = l.coded;
    coded_serves;
    bytes_stored_end = l.last_bytes;
    mean_bytes_stored =
      (if duration > 0.0 then l.byte_seconds /. duration else 0.0);
    bytes_moved = ((copies_moved + relocated) * l.tier.file_bytes) + l.tier_bytes;
    repair_bytes = (relocated * l.tier.file_bytes) + l.rebuild_bytes;
  }
