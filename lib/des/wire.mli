(** The packed overlay wire format of every simulator.

    A message is one payload word [b] plus the float slot [x] of
    {!Lesslog_net.Overlay.send_packed} (or of a sharded-engine send): the
    tag sits in bits 0-2 of [b], the fields above it, and [x] carries the
    issue timestamp where one is needed.

    {v
    GET    b = 0 | origin << 3 | hops << 27 | id << 33     x = issued_at
    REPLY  b = 1 | hops << 3 | server << 9 | id << 33      x = issued_at
    PUSH   b = 2 | version << 3
    PING   b = 3 | seq << 3
    PONG   b = 4 | seq << 3
    v}

    The request id sits at bit 33 in both GET and REPLY and keys the
    request's span in the observability sink; callers keep it within
    {!id_mask}. Builders and accessors are plain integer arithmetic: no
    message allocates. *)

type kind = Get | Reply | Push | Ping | Pong | Other

val kind : int -> kind

val origin_bits : int
(** Width of the origin and server fields: a PID space up to [2^24]. *)

val hops_max : int
(** Largest hop count the 6-bit hop field holds (63). A route that would
    exceed it is a routing fault. *)

val id_mask : int
(** Request ids are masked to 30 bits — far beyond any run length. *)

val get : id:int -> origin:int -> hops:int -> int
val reply : id:int -> server:int -> hops:int -> int
val push : version:int -> int
val ping : seq:int -> int
val pong : seq:int -> int

val id : int -> int
(** Request id of a GET or REPLY. *)

val get_origin : int -> int
val get_hops : int -> int
val reply_hops : int -> int
val reply_server : int -> int

val payload : int -> int
(** Everything above the tag: a PUSH's version, a PING's or PONG's
    sequence number. *)
