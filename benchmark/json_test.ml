(* Write -> parse -> compare: every integer reads back exactly and every
   float bit for bit, including the digest a three-decimal writer used to
   truncate. *)

module J = Exact_json

let ints =
  [ ("quiet_digest", 4453572081834309011); ("zero", 0); ("neg", -1);
    ("max_int", max_int); ("min_int", min_int) ]

let floats =
  [ ("tenth", 0.1); ("third", 1.0 /. 3.0); ("integral", 2.0); ("neg_zero", -0.0);
    ("tiny", 5e-324); ("huge", Float.max_float); ("wall_s", 0.025013947);
    ("rate", 123456.789012345678) ]

let strings = [ ("text", "quote \" backslash \\ newline \n tab \t bell \007") ]

let () =
  let doc =
    J.Obj
      (List.map (fun (k, i) -> (k, J.Int i)) ints
      @ List.map (fun (k, f) -> (k, J.Float f)) floats
      @ List.map (fun (k, s) -> (k, J.String s)) strings
      @ [ ("flag", J.Bool true); ("missing", J.Float Float.nan) ])
  in
  let text = J.to_string doc in
  let parsed = J.parse_flat text in
  let field k =
    match List.assoc_opt k parsed with
    | Some v -> v
    | None -> failwith ("json_test: missing " ^ k)
  in
  let failures = ref 0 in
  let check k ok =
    if not ok then begin
      incr failures;
      Printf.eprintf "json_test: %s did not round-trip in %s\n" k text
    end
  in
  List.iter
    (fun (k, i) ->
      check k (match field k with J.Number t -> int_of_string t = i | _ -> false))
    ints;
  List.iter
    (fun (k, f) ->
      check k
        (match field k with
        | J.Number t ->
            Int64.equal
              (Int64.bits_of_float (float_of_string t))
              (Int64.bits_of_float f)
        | _ -> false))
    floats;
  List.iter
    (fun (k, s) -> check k (field k = J.Str s))
    strings;
  check "flag" (field "flag" = J.Boolean true);
  check "missing" (field "missing" = J.Null);
  check "order" (List.map fst parsed = List.map fst (match doc with J.Obj kv -> kv | _ -> []));
  check "quiet_digest text"
    (let needle = "4453572081834309011" in
     let rec has i =
       i + String.length needle <= String.length text
       && (String.sub text i (String.length needle) = needle || has (i + 1))
     in
     has 0);
  if !failures > 0 then exit 1;
  print_endline "json_test: exact round trip ok"
