let max_bits = 15

let codes_of_lengths lengths =
  let bl_count = Array.make (max_bits + 1) 0 in
  Array.iter (fun l -> if l > 0 then bl_count.(l) <- bl_count.(l) + 1) lengths;
  let next_code = Array.make (max_bits + 1) 0 in
  let code = ref 0 in
  for bits = 1 to max_bits do
    code := (!code + bl_count.(bits - 1)) lsl 1;
    next_code.(bits) <- !code
  done;
  Array.map
    (fun l ->
      if l = 0 then 0
      else begin
        let c = next_code.(l) in
        next_code.(l) <- c + 1;
        c
      end)
    lengths

(* Decoder: binary trie stored in an int array.  node i has children at
   2i+1 / 2i+2 laid out in a growable array; leaves store symbol. *)
type decoder = { counts : int array; symbols : int array }

(* zlib-style canonical decoding: counts.(l) = number of codes of length l;
   symbols sorted by (length, symbol). *)
let decoder_of_lengths lengths =
  let counts = Array.make (max_bits + 1) 0 in
  Array.iter (fun l -> if l > 0 then counts.(l) <- counts.(l) + 1) lengths;
  let total = Array.fold_left ( + ) 0 counts in
  if total = 0 then Error "huffman: no symbols"
  else begin
    (* check for over-subscription *)
    let left = ref 1 in
    let oversubscribed = ref false in
    for l = 1 to max_bits do
      left := (!left lsl 1) - counts.(l);
      if !left < 0 then oversubscribed := true
    done;
    if !oversubscribed then Error "huffman: over-subscribed code"
    else if !left > 0 && total > 1 then Error "huffman: incomplete code"
    else begin
      let offsets = Array.make (max_bits + 2) 0 in
      for l = 1 to max_bits do
        offsets.(l + 1) <- offsets.(l) + counts.(l)
      done;
      let symbols = Array.make total 0 in
      Array.iteri
        (fun sym l ->
          if l > 0 then begin
            symbols.(offsets.(l)) <- sym;
            offsets.(l) <- offsets.(l) + 1
          end)
        lengths;
      Ok { counts; symbols }
    end
  end

let read_symbol d reader =
  let code = ref 0 and first = ref 0 and index = ref 0 in
  let result = ref (-1) in
  let len = ref 1 in
  while !result < 0 do
    if !len > max_bits then failwith "huffman: invalid code";
    code := !code lor Bitstream.Reader.bit reader;
    let count = d.counts.(!len) in
    if !code - count < !first then result := d.symbols.(!index + (!code - !first))
    else begin
      index := !index + count;
      first := (!first + count) lsl 1;
      code := !code lsl 1;
      incr len
    end
  done;
  !result

let fixed_literal_lengths () =
  Array.init 288 (fun i ->
      if i < 144 then 8 else if i < 256 then 9 else if i < 280 then 7 else 8)

let fixed_distance_lengths () = Array.make 32 5
