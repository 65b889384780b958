(* Unit and property tests for the gg_util library. *)

open Gg_util

let check_float = Alcotest.(check (float 1e-9))

(* --- Rng --- *)

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

(* Golden values: every seeded output (check logs, fig tables, WAN byte
   counts) rests on this exact stream, so a change to the generator must
   fail here, not just keep two same-seed streams equal. *)
let test_rng_golden_stream () =
  let rng = Rng.create 42 in
  List.iter
    (fun v -> Alcotest.(check int64) "bits64" v (Rng.bits64 rng))
    [ -4767286540954276203L; 2949826092126892291L; 5139283748462763858L ];
  Alcotest.(check int64) "split child's bits64" (-3524509440982052747L)
    (Rng.bits64 (Rng.split rng));
  Alcotest.(check (list int)) "int 26 after the split"
    [ 23; 19; 24; 2; 8; 25; 23; 1 ]
    (List.init 8 (fun _ -> Rng.int rng 26));
  Alcotest.(check (float 0.0)) "float" 0x1.06dbdb12fe7c8p-1
    (Rng.float rng 1.0)

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let equal = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits64 a = Rng.bits64 b then incr equal
  done;
  Alcotest.(check bool) "streams differ" true (!equal < 4)

let test_rng_int_bounds () =
  let rng = Rng.create 7 in
  for _ = 1 to 10_000 do
    let v = Rng.int rng 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_rng_int_invalid () =
  let rng = Rng.create 1 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_rng_int_in () =
  let rng = Rng.create 3 in
  for _ = 1 to 1_000 do
    let v = Rng.int_in rng (-5) 5 in
    Alcotest.(check bool) "in closed range" true (v >= -5 && v <= 5)
  done

let test_rng_float_bounds () =
  let rng = Rng.create 9 in
  for _ = 1 to 10_000 do
    let v = Rng.float rng 2.5 in
    Alcotest.(check bool) "in range" true (v >= 0.0 && v < 2.5)
  done

let test_rng_split_independent () =
  let base = Rng.create 11 in
  let a = Rng.split base and b = Rng.split base in
  Alcotest.(check bool) "split streams differ" true (Rng.bits64 a <> Rng.bits64 b)

let test_rng_chance_extremes () =
  let rng = Rng.create 5 in
  Alcotest.(check bool) "p=0 never" false (Rng.chance rng 0.0);
  Alcotest.(check bool) "p=1 always" true (Rng.chance rng 1.0)

let test_rng_chance_frequency () =
  let rng = Rng.create 13 in
  let hits = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    if Rng.chance rng 0.3 then incr hits
  done;
  let freq = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool) "about 30%" true (freq > 0.27 && freq < 0.33)

let test_rng_shuffle_permutation () =
  let rng = Rng.create 21 in
  let a = Array.init 50 (fun i -> i) in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "still a permutation" (Array.init 50 (fun i -> i)) sorted

let test_rng_exponential_mean () =
  let rng = Rng.create 17 in
  let acc = ref 0.0 in
  let n = 50_000 in
  for _ = 1 to n do
    acc := !acc +. Rng.exponential rng 10.0
  done;
  let mean = !acc /. float_of_int n in
  Alcotest.(check bool) "mean about 10" true (mean > 9.0 && mean < 11.0)

(* --- Zipf --- *)

let test_zipf_uniform_theta0 () =
  let z = Zipf.create ~theta:0.0 ~n:10 in
  let rng = Rng.create 1 in
  let counts = Array.make 10 0 in
  for _ = 1 to 50_000 do
    let k = Zipf.next z rng in
    counts.(k) <- counts.(k) + 1
  done;
  Array.iter
    (fun c ->
      Alcotest.(check bool) "roughly uniform" true (c > 4_000 && c < 6_000))
    counts

let test_zipf_skew () =
  let z = Zipf.create ~theta:0.9 ~n:1000 in
  let rng = Rng.create 2 in
  let counts = Array.make 1000 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let k = Zipf.next z rng in
    Alcotest.(check bool) "in range" true (k >= 0 && k < 1000);
    counts.(k) <- counts.(k) + 1
  done;
  (* Item 0 must dominate: with theta=0.9 it takes >5% of the mass. *)
  Alcotest.(check bool) "head is hot" true (counts.(0) > n / 20);
  Alcotest.(check bool) "head hotter than tail" true (counts.(0) > 100 * (counts.(900) + 1))

let test_zipf_mc_hotspot () =
  (* Paper YCSB-MC: theta=0.8 gives ~60% of accesses on 10% of tuples. *)
  let n = 1000 in
  let z = Zipf.create ~theta:0.8 ~n in
  let rng = Rng.create 3 in
  let hot = ref 0 in
  let total = 100_000 in
  for _ = 1 to total do
    if Zipf.next z rng < n / 10 then incr hot
  done;
  let frac = float_of_int !hot /. float_of_int total in
  Alcotest.(check bool)
    (Printf.sprintf "hotspot fraction %.2f in [0.5, 0.75]" frac)
    true
    (frac > 0.5 && frac < 0.75)

let test_zipf_invalid () =
  Alcotest.check_raises "bad theta"
    (Invalid_argument "Zipf.create: theta must be in [0, 1)") (fun () ->
      ignore (Zipf.create ~theta:1.0 ~n:10))

let test_zipf_scrambled_range () =
  let z = Zipf.create ~theta:0.9 ~n:777 in
  let rng = Rng.create 4 in
  for _ = 1 to 10_000 do
    let k = Zipf.scrambled z rng in
    Alcotest.(check bool) "in range" true (k >= 0 && k < 777)
  done

(* --- Stats --- *)

let test_acc_basic () =
  let acc = Stats.Acc.create () in
  List.iter (Stats.Acc.add acc) [ 1.0; 2.0; 3.0; 4.0 ];
  Alcotest.(check int) "count" 4 (Stats.Acc.count acc);
  check_float "mean" 2.5 (Stats.Acc.mean acc);
  check_float "min" 1.0 (Stats.Acc.min acc);
  check_float "max" 4.0 (Stats.Acc.max acc);
  check_float "total" 10.0 (Stats.Acc.total acc);
  check_float "variance" (5.0 /. 3.0) (Stats.Acc.variance acc)

let test_acc_empty () =
  let acc = Stats.Acc.create () in
  check_float "mean of empty" 0.0 (Stats.Acc.mean acc);
  Alcotest.(check int) "count" 0 (Stats.Acc.count acc)

let test_acc_merge () =
  let a = Stats.Acc.create () and b = Stats.Acc.create () in
  List.iter (Stats.Acc.add a) [ 1.0; 2.0 ];
  List.iter (Stats.Acc.add b) [ 3.0; 4.0; 5.0 ];
  let m = Stats.Acc.merge a b in
  Alcotest.(check int) "count" 5 (Stats.Acc.count m);
  check_float "mean" 3.0 (Stats.Acc.mean m);
  check_float "min" 1.0 (Stats.Acc.min m);
  check_float "max" 5.0 (Stats.Acc.max m)

let test_hist_percentiles () =
  let h = Stats.Hist.create () in
  for i = 1 to 1000 do
    Stats.Hist.add h (float_of_int i)
  done;
  Alcotest.(check int) "count" 1000 (Stats.Hist.count h);
  let p50 = Stats.Hist.p50 h in
  Alcotest.(check bool)
    (Printf.sprintf "p50=%.1f near 500" p50)
    true
    (p50 > 450.0 && p50 < 550.0);
  let p99 = Stats.Hist.p99 h in
  Alcotest.(check bool)
    (Printf.sprintf "p99=%.1f near 990" p99)
    true
    (p99 > 930.0 && p99 <= 1000.0);
  check_float "max" 1000.0 (Stats.Hist.max h)

(* Pin the linear interpolation inside the crossing bucket on known
   distributions. Values <= 1.0 all land in bucket 0, whose bounds are
   [0, 1], so the interpolated percentile is exactly rank/count there. *)
let test_hist_percentile_interpolation () =
  let h = Stats.Hist.create () in
  List.iter (Stats.Hist.add h) [ 0.2; 0.4; 0.6; 0.8 ];
  check_float "p25 interpolates to 0.25" 0.25 (Stats.Hist.percentile h 25.0);
  check_float "p50 interpolates to 0.5" 0.5 (Stats.Hist.percentile h 50.0);
  check_float "p75 interpolates to 0.75" 0.75 (Stats.Hist.percentile h 75.0);
  (* the bucket's upper bound (1.0) exceeds the observed max: clamp *)
  check_float "p100 clamped to observed max" 0.8
    (Stats.Hist.percentile h 100.0);
  let one = Stats.Hist.create () in
  Stats.Hist.add one 50.0;
  check_float "single value, p100 = the value" 50.0
    (Stats.Hist.percentile one 100.0);
  Alcotest.(check bool) "single value, p50 <= the value" true
    (Stats.Hist.percentile one 50.0 <= 50.0);
  check_float "empty hist = 0" 0.0 (Stats.Hist.percentile (Stats.Hist.create ()) 99.0);
  (* percentiles are monotone in p *)
  let u = Stats.Hist.create () in
  for i = 1 to 1000 do
    Stats.Hist.add u (float_of_int i)
  done;
  let prev = ref 0.0 in
  List.iter
    (fun p ->
      let v = Stats.Hist.percentile u p in
      Alcotest.(check bool) (Printf.sprintf "monotone at p%.0f" p) true (v >= !prev);
      prev := v)
    [ 1.0; 10.0; 25.0; 50.0; 75.0; 90.0; 95.0; 99.0; 100.0 ]

let test_hist_mean () =
  let h = Stats.Hist.create () in
  List.iter (Stats.Hist.add h) [ 10.0; 20.0; 30.0 ];
  check_float "mean exact" 20.0 (Stats.Hist.mean h)

let test_hist_merge () =
  let a = Stats.Hist.create () and b = Stats.Hist.create () in
  Stats.Hist.add a 5.0;
  Stats.Hist.add b 500.0;
  let m = Stats.Hist.merge a b in
  Alcotest.(check int) "count" 2 (Stats.Hist.count m);
  check_float "max" 500.0 (Stats.Hist.max m)

let test_series () =
  let s = Stats.Series.create () in
  Stats.Series.add s ~x:1.0 ~y:10.0;
  Stats.Series.add s ~x:2.0 ~y:20.0;
  Alcotest.(check int) "length" 2 (Stats.Series.length s);
  let pts = Stats.Series.points s in
  Alcotest.(check bool) "order preserved" true (pts.(0) = (1.0, 10.0) && pts.(1) = (2.0, 20.0))

(* --- Codec --- *)

let test_codec_varint_roundtrip () =
  let enc = Codec.Enc.create () in
  let values = [ 0; 1; 127; 128; 300; 65535; 1_000_000; max_int ] in
  List.iter (Codec.Enc.varint enc) values;
  let dec = Codec.Dec.of_bytes (Codec.Enc.to_bytes enc) in
  List.iter
    (fun v -> Alcotest.(check int) "varint" v (Codec.Dec.varint dec))
    values;
  Alcotest.(check bool) "consumed all" true (Codec.Dec.at_end dec)

let test_codec_zigzag_roundtrip () =
  let enc = Codec.Enc.create () in
  let values = [ 0; -1; 1; -64; 64; -1_000_000; 1_000_000 ] in
  List.iter (Codec.Enc.zigzag enc) values;
  let dec = Codec.Dec.of_bytes (Codec.Enc.to_bytes enc) in
  List.iter (fun v -> Alcotest.(check int) "zigzag" v (Codec.Dec.zigzag dec)) values

let test_codec_mixed_roundtrip () =
  let enc = Codec.Enc.create () in
  Codec.Enc.string enc "hello";
  Codec.Enc.float enc 3.14159;
  Codec.Enc.bool enc true;
  Codec.Enc.string enc "";
  let dec = Codec.Dec.of_bytes (Codec.Enc.to_bytes enc) in
  Alcotest.(check string) "string" "hello" (Codec.Dec.string dec);
  check_float "float" 3.14159 (Codec.Dec.float dec);
  Alcotest.(check bool) "bool" true (Codec.Dec.bool dec);
  Alcotest.(check string) "empty string" "" (Codec.Dec.string dec)

(* [Enc.digest] hashes exactly the bytes written since the last
   [clear], through growth of the storage and after a clear that keeps
   the larger storage's stale bytes. *)
let test_codec_digest () =
  let enc = Codec.Enc.create () in
  let long = String.init 1000 (fun i -> Char.chr (i land 0xFF)) in
  Codec.Enc.raw enc long;
  Codec.Enc.string enc long;
  Alcotest.(check string) "after growth"
    (Digest.bytes (Codec.Enc.to_bytes enc)) (Codec.Enc.digest enc);
  Codec.Enc.clear enc;
  Codec.Enc.raw enc "abc";
  Alcotest.(check string) "after clear" (Digest.string "abc")
    (Codec.Enc.digest enc);
  Codec.Enc.clear enc;
  Alcotest.(check string) "empty" (Digest.string "") (Codec.Enc.digest enc)

let test_codec_truncated () =
  let enc = Codec.Enc.create () in
  Codec.Enc.string enc "abcdef";
  let b = Codec.Enc.to_bytes enc in
  let dec = Codec.Dec.of_bytes (Bytes.sub b 0 3) in
  Alcotest.check_raises "truncated" Codec.Dec.Truncated (fun () ->
      ignore (Codec.Dec.string dec))

let test_codec_negative_varint () =
  let enc = Codec.Enc.create () in
  Alcotest.check_raises "negative" (Invalid_argument "Codec.Enc.varint: negative")
    (fun () -> Codec.Enc.varint enc (-1))

let prop_varint_roundtrip =
  QCheck.Test.make ~name:"varint roundtrip" ~count:1000
    QCheck.(map abs int)
    (fun v ->
      let enc = Codec.Enc.create () in
      Codec.Enc.varint enc v;
      let dec = Codec.Dec.of_bytes (Codec.Enc.to_bytes enc) in
      Codec.Dec.varint dec = v)

let prop_zigzag_roundtrip =
  QCheck.Test.make ~name:"zigzag roundtrip" ~count:1000
    QCheck.(int_range (-1_000_000_000) 1_000_000_000)
    (fun v ->
      let enc = Codec.Enc.create () in
      Codec.Enc.zigzag enc v;
      let dec = Codec.Dec.of_bytes (Codec.Enc.to_bytes enc) in
      Codec.Dec.zigzag dec = v)

let prop_string_roundtrip =
  QCheck.Test.make ~name:"string roundtrip" ~count:500 QCheck.string (fun s ->
      let enc = Codec.Enc.create () in
      Codec.Enc.string enc s;
      let dec = Codec.Dec.of_bytes (Codec.Enc.to_bytes enc) in
      Codec.Dec.string dec = s)

(* --- Compress --- *)

let test_compress_roundtrip_simple () =
  let data = Bytes.of_string "hello hello hello hello world world world" in
  let c = Compress.compress data in
  Alcotest.(check bytes) "roundtrip" data (Compress.decompress c)

let test_compress_empty () =
  let data = Bytes.empty in
  Alcotest.(check bytes) "empty roundtrip" data
    (Compress.decompress (Compress.compress data))

let test_compress_shrinks_repetitive () =
  let data = Bytes.of_string (String.concat "" (List.init 100 (fun _ -> "abcdefgh"))) in
  let c = Bytes.length (Compress.compress data) in
  Alcotest.(check bool)
    (Printf.sprintf "%d B -> %d B, under a fifth" (Bytes.length data) c)
    true (5 * c < Bytes.length data)

let test_compress_long_runs () =
  let data = Bytes.make 10_000 'x' in
  let c = Compress.compress data in
  Alcotest.(check bool) "run compresses hard" true (Bytes.length c < 200);
  Alcotest.(check bytes) "roundtrip" data (Compress.decompress c)

let test_compress_rejects_garbage () =
  (* the second input claims 2^56 bytes from a 4-byte body: rejected
     before any allocation is sized from the prefix *)
  let forged = Codec.Enc.create () in
  Codec.Enc.varint forged (1 lsl 56);
  Codec.Enc.raw forged "\x00a\x00b";
  List.iter
    (fun input ->
      Alcotest.(check bool) "garbage raises" true
        (try
           ignore (Compress.decompress input);
           false
         with Invalid_argument _ -> true))
    [ Bytes.of_string "\x05\x07\x07\x07"; Codec.Enc.to_bytes forged ]

let prop_compress_roundtrip =
  QCheck.Test.make ~name:"compress roundtrip" ~count:300 QCheck.string (fun s ->
      let b = Bytes.of_string s in
      Bytes.equal b (Compress.decompress (Compress.compress b)))

let prop_compress_roundtrip_repetitive =
  QCheck.Test.make ~name:"compress roundtrip (repetitive)" ~count:200
    QCheck.(pair small_string (int_range 1 50))
    (fun (s, k) ->
      let b = Bytes.of_string (String.concat "" (List.init k (fun _ -> s))) in
      Bytes.equal b (Compress.decompress (Compress.compress b)))

(* Golden bytes: compressed sizes feed every simulated WAN byte count,
   so the compressor's output must never drift. [Reference] is the
   original allocate-per-call implementation, kept verbatim as the
   oracle the scratch-reusing one is checked against. *)
module Reference = struct
  let min_match = 3
  let max_match = 258
  let window = 1 lsl 16
  let hash_bits = 15
  let hash_size = 1 lsl hash_bits

  let hash3 data i =
    let a = Char.code (Bytes.get data i)
    and b = Char.code (Bytes.get data (i + 1))
    and c = Char.code (Bytes.get data (i + 2)) in
    ((a lsl 10) lxor (b lsl 5) lxor c) land (hash_size - 1)

  let compress input =
    let n = Bytes.length input in
    let enc = Codec.Enc.create () in
    Codec.Enc.varint enc n;
    let head = Array.make hash_size (-1) in
    let prev = Array.make (max n 1) (-1) in
    let match_len i j =
      let limit = min max_match (n - i) in
      let rec go k =
        if k < limit && Bytes.get input (i + k) = Bytes.get input (j + k) then
          go (k + 1)
        else k
      in
      go 0
    in
    let insert i =
      if i + min_match <= n then begin
        let h = hash3 input i in
        prev.(i) <- head.(h);
        head.(h) <- i
      end
    in
    let i = ref 0 in
    while !i < n do
      let best_len = ref 0 and best_pos = ref (-1) in
      if !i + min_match <= n then begin
        let h = hash3 input !i in
        let candidate = ref head.(h) in
        let tries = ref 32 in
        while !candidate >= 0 && !tries > 0 do
          if !i - !candidate <= window then begin
            let len = match_len !i !candidate in
            if len > !best_len then begin
              best_len := len;
              best_pos := !candidate
            end;
            candidate := prev.(!candidate);
            decr tries
          end
          else begin
            candidate := -1 (* beyond window: chain only gets older *)
          end
        done
      end;
      if !best_len >= min_match then begin
        Codec.Enc.byte enc 0x01;
        Codec.Enc.varint enc !best_len;
        Codec.Enc.varint enc (!i - !best_pos);
        for k = !i to !i + !best_len - 1 do
          insert k
        done;
        i := !i + !best_len
      end
      else begin
        Codec.Enc.byte enc 0x00;
        Codec.Enc.byte enc (Char.code (Bytes.get input !i));
        insert !i;
        incr i
      end
    done;
    Codec.Enc.to_bytes enc
end

let same_as_reference b =
  Bytes.equal (Reference.compress b) (Compress.compress b)

let prop_compress_matches_reference =
  QCheck.Test.make ~name:"compress bytes match reference" ~count:300
    QCheck.string (fun s -> same_as_reference (Bytes.of_string s))

let prop_compress_matches_reference_repetitive =
  QCheck.Test.make ~name:"compress bytes match reference (repetitive)"
    ~count:200
    QCheck.(pair small_string (int_range 1 200))
    (fun (s, k) ->
      same_as_reference
        (Bytes.of_string (String.concat "" (List.init k (fun _ -> s)))))

let check_reference what b =
  Alcotest.(check bytes) what (Reference.compress b) (Compress.compress b)

(* Write-set-like bytes: a small alphabet with recurring runs, so long
   hash chains and matches at many distances all occur. *)
let corpus_bytes ~seed n =
  let rng = Rng.create seed in
  Bytes.init n (fun i ->
      if i mod 64 < 16 then Char.chr (i mod 7 + 97)
      else Char.chr (Rng.int rng 12 + 65))

let test_compress_sequence_no_stale_scratch () =
  (* Long, empty, short, long again on one domain: every call must give
     the reference bytes, whatever the previous calls left behind. *)
  List.iteri
    (fun k b ->
      check_reference (Printf.sprintf "call %d (%d B)" k (Bytes.length b)) b)
    [
      corpus_bytes ~seed:1 8192;
      Bytes.empty;
      corpus_bytes ~seed:2 100;
      corpus_bytes ~seed:3 8192;
    ]

let test_compress_window_edge () =
  (* 192 KiB of random bytes (so chains are short and mostly too old)
     with 48-byte blocks repeated at distances just inside, at and just
     past the 64 KiB window. *)
  let rng = Rng.create 17 in
  let b = Bytes.init (192 * 1024) (fun _ -> Char.chr (Rng.int rng 256)) in
  List.iter
    (fun (src, dist) -> Bytes.blit b src b (src + dist) 48)
    [ (1000, 65_535); (40_000, 65_536); (90_000, 65_537) ];
  check_reference "window edge" b;
  Alcotest.(check bytes) "roundtrip" b
    (Compress.decompress (Compress.compress b))

let test_compress_match_cap () =
  (* runs and periodic inputs around the 258-byte match cap *)
  List.iter
    (fun len ->
      check_reference (Printf.sprintf "run of %d" len) (Bytes.make len 'z');
      check_reference (Printf.sprintf "period 3, %d B" len)
        (Bytes.init len (fun i -> "xyz".[i mod 3]));
      check_reference
        (Printf.sprintf "run of %d between literals" len)
        (Bytes.of_string ("head" ^ String.make len 'q' ^ "tail")))
    [ 257; 258; 259; 260; 261; 516; 517; 518; 1000 ]

let test_compress_tiny_inputs () =
  (* every input of length 0-3 over a 3-letter alphabet *)
  let rec inputs len =
    if len = 0 then [ "" ]
    else
      List.concat_map (fun s -> [ s ^ "a"; s ^ "b"; s ^ "c" ]) (inputs (len - 1))
  in
  List.iter
    (fun len ->
      List.iter (fun s -> check_reference s (Bytes.of_string s)) (inputs len))
    [ 0; 1; 2; 3 ]

(* A ycsb-mc mini-batch frame as [Writeset.Batch.to_wire] hands it to
   the compressor: node, cen, eof, counts, then each write set of
   10-field records with random lowercase 16-byte values. *)
let ycsb_frame rng =
  let enc = Codec.Enc.create () in
  let txns =
    List.init (1 + Rng.int rng 2) (fun _ ->
        Gg_crdt.Writeset.make
          ~meta:
            (Gg_crdt.Meta.make ~sen:(Rng.int rng 100) ~cen:(Rng.int rng 100)
               ~csn:
                 (Gg_storage.Csn.make ~ts:(Rng.int rng 1_000_000)
                    ~node:(Rng.int rng 3)))
          ~records:
            (List.init (1 + Rng.int rng 4) (fun _ ->
                 let k = Rng.int rng 100_000 in
                 Gg_crdt.Writeset.make_record ~table:"usertable"
                   ~key:[| Gg_storage.Value.Int k |] ~op:Gg_crdt.Writeset.Update
                   ~data:
                     (Array.init 11 (fun c ->
                          if c = 0 then Gg_storage.Value.Int k
                          else
                            Gg_storage.Value.Str
                              (String.init 16 (fun _ ->
                                   Char.chr (97 + Rng.int rng 26)))))
                   ()))
          ())
  in
  List.iter (Codec.Enc.varint enc) [ Rng.int rng 3; Rng.int rng 100 ];
  Codec.Enc.bool enc true;
  Codec.Enc.varint enc (List.length txns);
  Codec.Enc.varint enc (List.length txns);
  List.iter (Gg_crdt.Writeset.encode enc) txns;
  Codec.Enc.to_bytes enc

let test_compress_ycsb_frames () =
  let rng = Rng.create 23 in
  for k = 1 to 200 do
    check_reference (Printf.sprintf "frame %d" k) (ycsb_frame rng)
  done

let test_compress_two_domains_parity () =
  let corpus =
    List.init 12 (fun k -> corpus_bytes ~seed:(10 + k) (64 + (k * 700)))
  in
  let sequential = List.map Compress.compress corpus in
  let parallel =
    Gg_par.Pool.with_pool ~jobs:2 (fun pool ->
        Gg_par.Pool.map pool Compress.compress corpus)
  in
  Alcotest.(check (list bytes)) "two domains give the sequential bytes"
    sequential parallel

(* --- Fifo --- *)

(* A run of pushes and pops against a list model; a pop on an empty
   queue must raise. Runs of pushes grow the ring past its initial 16
   slots, and pops in between leave the head mid-ring, so growth and
   wrap-around both happen with the live elements split in two. *)
let prop_fifo_matches_list =
  QCheck.Test.make ~name:"fifo matches a list model" ~count:300
    QCheck.(list (pair bool (int_range 1 40)))
    (fun runs ->
      let q = Fifo.create ~filler:(-1) in
      (* the model: [front] oldest first, then [back] newest first *)
      let front = ref [] and back = ref [] and next = ref 0 in
      let step is_push =
        if is_push then begin
          Fifo.push q !next;
          back := !next :: !back;
          incr next;
          true
        end
        else begin
          if !front = [] then begin
            front := List.rev !back;
            back := []
          end;
          match !front with
          | [] -> (
            try
              ignore (Fifo.pop q);
              false
            with Invalid_argument _ -> true)
          | x :: rest ->
            front := rest;
            Fifo.pop q = x
        end
      in
      List.for_all
        (fun (is_push, n) ->
          List.for_all (fun _ -> step is_push) (List.init n Fun.id)
          && Fifo.length q = List.length !front + List.length !back
          && Fifo.is_empty q = (!front = [] && !back = []))
        runs)

let test_fifo_wrapped_growth () =
  let q = Fifo.create ~filler:(-1) in
  for i = 0 to 9 do Fifo.push q i done;
  for _ = 0 to 7 do ignore (Fifo.pop q) done;
  (* head is mid-ring; fill the 16 slots, then grow past them *)
  for i = 10 to 38 do Fifo.push q i done;
  Alcotest.(check int) "length" 31 (Fifo.length q);
  let out = List.init 31 (fun _ -> Fifo.pop q) in
  Alcotest.(check (list int)) "order kept" (List.init 31 (fun i -> i + 8)) out;
  Fifo.push q 99;
  Fifo.clear q;
  Alcotest.(check bool) "cleared" true (Fifo.is_empty q);
  Fifo.push q 100;
  Alcotest.(check int) "usable after clear" 100 (Fifo.pop q)

(* [pop] forgets the element: once its last outside reference is gone, a
   major collection frees it although the queue lives on. *)
let[@inline never] push_two_pop_one q weak =
  let x = Bytes.make 16 'x' in
  Weak.set weak 0 (Some x);
  Fifo.push q x;
  Fifo.push q (Bytes.make 16 'y');
  ignore (Sys.opaque_identity (Fifo.pop q))

let test_fifo_pop_releases () =
  let q = Fifo.create ~filler:Bytes.empty in
  let weak = Weak.create 1 in
  push_two_pop_one q weak;
  Gc.full_major ();
  Alcotest.(check bool) "popped element collected" false (Weak.check weak 0);
  Alcotest.(check int) "queue still holds the other" 1 (Fifo.length q)

(* --- Tablefmt --- *)

let test_tablefmt_renders () =
  let t = Tablefmt.create ~title:"T" ~headers:[ "a"; "bb" ] in
  Tablefmt.add_row t [ "1"; "2" ];
  Tablefmt.add_row t [ "333" ];
  let s = Tablefmt.render t in
  Alcotest.(check bool) "has title" true (String.length s > 0 && s.[0] = 'T');
  (* Every rendered line must share the same width (box alignment). *)
  let lines = String.split_on_char '\n' s |> List.filter (fun l -> l <> "" && l <> "T") in
  let widths = List.map String.length lines in
  match widths with
  | [] -> Alcotest.fail "no lines"
  | w :: rest -> List.iter (fun w' -> Alcotest.(check int) "aligned" w w') rest

let test_fmt_si () =
  Alcotest.(check string) "k" "12.3k" (Tablefmt.fmt_si 12_345.0);
  Alcotest.(check string) "M" "4.57M" (Tablefmt.fmt_si 4_567_000.0);
  Alcotest.(check string) "plain" "42.0" (Tablefmt.fmt_si 42.0)

let () =
  Alcotest.run "gg_util"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "golden stream" `Quick test_rng_golden_stream;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int invalid" `Quick test_rng_int_invalid;
          Alcotest.test_case "int_in bounds" `Quick test_rng_int_in;
          Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "chance extremes" `Quick test_rng_chance_extremes;
          Alcotest.test_case "chance frequency" `Quick test_rng_chance_frequency;
          Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
        ] );
      ( "zipf",
        [
          Alcotest.test_case "theta0 uniform" `Quick test_zipf_uniform_theta0;
          Alcotest.test_case "skew" `Quick test_zipf_skew;
          Alcotest.test_case "paper MC hotspot" `Quick test_zipf_mc_hotspot;
          Alcotest.test_case "invalid theta" `Quick test_zipf_invalid;
          Alcotest.test_case "scrambled range" `Quick test_zipf_scrambled_range;
        ] );
      ( "stats",
        [
          Alcotest.test_case "acc basic" `Quick test_acc_basic;
          Alcotest.test_case "acc empty" `Quick test_acc_empty;
          Alcotest.test_case "acc merge" `Quick test_acc_merge;
          Alcotest.test_case "hist percentiles" `Quick test_hist_percentiles;
          Alcotest.test_case "hist percentile interpolation" `Quick
            test_hist_percentile_interpolation;
          Alcotest.test_case "hist mean" `Quick test_hist_mean;
          Alcotest.test_case "hist merge" `Quick test_hist_merge;
          Alcotest.test_case "series" `Quick test_series;
        ] );
      ( "codec",
        [
          Alcotest.test_case "varint roundtrip" `Quick test_codec_varint_roundtrip;
          Alcotest.test_case "zigzag roundtrip" `Quick test_codec_zigzag_roundtrip;
          Alcotest.test_case "mixed roundtrip" `Quick test_codec_mixed_roundtrip;
          Alcotest.test_case "digest in place" `Quick test_codec_digest;
          Alcotest.test_case "truncated" `Quick test_codec_truncated;
          Alcotest.test_case "negative varint" `Quick test_codec_negative_varint;
          QCheck_alcotest.to_alcotest prop_varint_roundtrip;
          QCheck_alcotest.to_alcotest prop_zigzag_roundtrip;
          QCheck_alcotest.to_alcotest prop_string_roundtrip;
        ] );
      ( "compress",
        [
          Alcotest.test_case "roundtrip simple" `Quick test_compress_roundtrip_simple;
          Alcotest.test_case "empty" `Quick test_compress_empty;
          Alcotest.test_case "shrinks repetitive" `Quick test_compress_shrinks_repetitive;
          Alcotest.test_case "long runs" `Quick test_compress_long_runs;
          Alcotest.test_case "rejects garbage" `Quick test_compress_rejects_garbage;
          QCheck_alcotest.to_alcotest prop_compress_roundtrip;
          QCheck_alcotest.to_alcotest prop_compress_roundtrip_repetitive;
          QCheck_alcotest.to_alcotest prop_compress_matches_reference;
          QCheck_alcotest.to_alcotest prop_compress_matches_reference_repetitive;
          Alcotest.test_case "no stale scratch across calls" `Quick
            test_compress_sequence_no_stale_scratch;
          Alcotest.test_case "two domains match sequential" `Quick
            test_compress_two_domains_parity;
          Alcotest.test_case "reference at the window edge" `Quick
            test_compress_window_edge;
          Alcotest.test_case "reference around the match cap" `Quick
            test_compress_match_cap;
          Alcotest.test_case "reference on lengths 0-3" `Quick
            test_compress_tiny_inputs;
          Alcotest.test_case "reference on ycsb-mc frames" `Quick
            test_compress_ycsb_frames;
        ] );
      ( "fifo",
        [
          QCheck_alcotest.to_alcotest prop_fifo_matches_list;
          Alcotest.test_case "order through wrapped growth" `Quick
            test_fifo_wrapped_growth;
          Alcotest.test_case "pop releases the element" `Quick
            test_fifo_pop_releases;
        ] );
      ( "tablefmt",
        [
          Alcotest.test_case "renders aligned" `Quick test_tablefmt_renders;
          Alcotest.test_case "fmt_si" `Quick test_fmt_si;
        ] );
    ]
