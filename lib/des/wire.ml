type kind = Get | Reply | Push | Ping | Pong | Other

let kind b =
  match b land 7 with
  | 0 -> Get
  | 1 -> Reply
  | 2 -> Push
  | 3 -> Ping
  | 4 -> Pong
  | _ -> Other

let origin_bits = 24
let origin_mask = (1 lsl origin_bits) - 1
let hops_bits = 6
let hops_max = (1 lsl hops_bits) - 1
let id_shift = 3 + origin_bits + hops_bits
let id_mask = (1 lsl 30) - 1

let get ~id ~origin ~hops =
  (origin lsl 3) lor ((hops land hops_max) lsl (3 + origin_bits)) lor (id lsl id_shift)

let reply ~id ~server ~hops =
  1 lor ((hops land hops_max) lsl 3) lor (server lsl (3 + hops_bits)) lor (id lsl id_shift)

let push ~version = 2 lor (version lsl 3)
let ping ~seq = 3 lor (seq lsl 3)
let pong ~seq = 4 lor (seq lsl 3)
let id b = b lsr id_shift
let get_origin b = (b lsr 3) land origin_mask
let get_hops b = (b lsr (3 + origin_bits)) land hops_max
let reply_hops b = (b lsr 3) land hops_max
let reply_server b = (b lsr (3 + hops_bits)) land origin_mask
let payload b = b lsr 3
