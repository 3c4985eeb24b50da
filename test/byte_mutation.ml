(* Byte mutations for decoder fuzzing, shared by the test suites: one
   to three edits that set, insert or delete a byte, or truncate.
   Positions wrap modulo the input's length. *)

type t =
  | Set of int * char  (** byte position, new byte *)
  | Insert of int * char
  | Delete of int
  | Truncate of int

let apply s m =
  let n = String.length s in
  match m with
  | Set (pos, c) when n > 0 ->
    String.mapi (fun i x -> if i = pos mod n then c else x) s
  | Insert (pos, c) ->
    let i = pos mod (n + 1) in
    String.sub s 0 i ^ String.make 1 c ^ String.sub s i (n - i)
  | Delete pos when n > 0 ->
    let i = pos mod n in
    String.sub s 0 i ^ String.sub s (i + 1) (n - i - 1)
  | Set _ | Delete _ -> s
  | Truncate pos -> String.sub s 0 (pos mod (n + 1))

let to_string = function
  | Set (pos, c) -> Printf.sprintf "set %d %C" pos c
  | Insert (pos, c) -> Printf.sprintf "insert %d %C" pos c
  | Delete pos -> Printf.sprintf "delete %d" pos
  | Truncate pos -> Printf.sprintf "truncate %d" pos

(* [byte] draws what [Set] and [Insert] write. *)
let gen byte =
  let open QCheck.Gen in
  let pos = int_bound 1_000_000 in
  frequency
    [ (4, map2 (fun p c -> Set (p, c)) pos byte);
      (2, map2 (fun p c -> Insert (p, c)) pos byte);
      (2, map (fun p -> Delete p) pos);
      (1, map (fun p -> Truncate p) pos) ]

(* A number that picks the input (an index into a corpus, or a seed)
   and the mutations to apply to it. *)
let arbitrary ~byte =
  QCheck.make
    ~print:(fun (k, ms) ->
      Printf.sprintf "input %d: %s" k (String.concat "; " (List.map to_string ms)))
    QCheck.Gen.(pair (int_bound 1_000_000) (list_size (int_range 1 3) (gen byte)))
