type t =
  | Int of int
  | Float of float
  | String of string
  | Bool of bool
  | List of t list
  | Obj of (string * t) list

let add_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let rec add buf = function
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
      Buffer.add_string buf
        (if Float.is_finite f then Printf.sprintf "%.17g" f else "null")
  | String s -> add_string buf s
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | List l ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char buf ',';
          add buf v)
        l;
      Buffer.add_char buf ']'
  | Obj kvs ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string buf ", ";
          add_string buf k;
          Buffer.add_string buf ": ";
          add buf v)
        kvs;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  add buf v;
  Buffer.contents buf

let write ~path v =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (to_string v);
      output_char oc '\n')

type scalar = Number of string | Str of string | Boolean of bool | Null

let parse_flat s =
  let n = String.length s in
  let pos = ref 0 in
  let fail what = failwith (Printf.sprintf "Exact_json: %s at %d" what !pos) in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let rec skip_ws () =
    match peek () with
    | ' ' | '\n' | '\r' | '\t' ->
        incr pos;
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    skip_ws ();
    if peek () <> c then fail (Printf.sprintf "expected '%c'" c);
    incr pos
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then (
      pos := !pos + String.length word;
      v)
    else fail "bad literal"
  in
  let string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      incr pos;
      match c with
      | '"' -> ()
      | '\\' ->
          if !pos >= n then fail "unterminated escape";
          let e = s.[!pos] in
          incr pos;
          (match e with
          | '"' | '\\' | '/' -> Buffer.add_char buf e
          | 'n' -> Buffer.add_char buf '\n'
          | 't' -> Buffer.add_char buf '\t'
          | 'r' -> Buffer.add_char buf '\r'
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'u' when !pos + 4 <= n ->
              let code = int_of_string ("0x" ^ String.sub s !pos 4) in
              pos := !pos + 4;
              Buffer.add_utf_8_uchar buf (Uchar.of_int code)
          | _ -> fail "bad escape");
          go ()
      | c ->
          Buffer.add_char buf c;
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let number () =
    let start = !pos in
    while
      match peek () with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    do
      incr pos
    done;
    if !pos = start then fail "expected a value";
    Number (String.sub s start (!pos - start))
  in
  let value () =
    skip_ws ();
    match peek () with
    | '"' -> Str (string ())
    | 't' -> literal "true" (Boolean true)
    | 'f' -> literal "false" (Boolean false)
    | 'n' -> literal "null" Null
    | _ -> number ()
  in
  expect '{';
  skip_ws ();
  let fields =
    if peek () = '}' then []
    else
      let rec members acc =
        let k = string () in
        expect ':';
        let v = value () in
        skip_ws ();
        match peek () with
        | ',' ->
            incr pos;
            members ((k, v) :: acc)
        | _ -> List.rev ((k, v) :: acc)
      in
      members []
  in
  expect '}';
  skip_ws ();
  if !pos <> n then fail "trailing input";
  fields
