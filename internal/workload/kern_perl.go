package workload

import "fmt"

// perl: word hashing and scoring over generated text, the analogue of the
// SPEC95 134.perl scrabble workload: string scanning, per-character hash
// chains, table lookups. The second pass over the same text hits the
// dictionary built by the first — pure repetition, which is where IR and
// VP shine.
func init() {
	register(&Workload{
		Name: "perl",
		Desc: "word hashing + scrabble scoring over generated text",
		Source: func(scale int) string {
			slots, shift := perlSet(scale)
			setup, mask := "", "andi  $t5, $t5, 4095"
			if slots > 4096 {
				// andi takes a 16-bit immediate, so a wider mask lives in $t8.
				setup, mask = fmt.Sprintf("\n        li    $t8, %d", slots-1), "and   $t5, $t5, $t8"
			}
			return fmt.Sprintf(perlAsm, 6144*scale, 4*slots, slots, setup, shift, mask)
		},
		Golden: goldenPerl,
	})
}

const perlAsm = `
# perl: tokenize words, hash each, score letters, dedupe via a hash set.
TEXTN = %[1]d
        .data
text:   .space TEXTN
hset:   .space %[2]d          # %[3]d entries x 4 bytes (stored hash, 0 empty)
lval:   .byte 1,3,3,2,1,4,2,4,1,8,5,1,3,1,1,3,10,1,1,1,1,4,4,8,4,10
        .align 2
        .text
main:   li    $s7, 0x9E71%[4]s
        # Generate text: words of 3..10 lowercase letters, space separated.
        la    $s0, text
        li    $s6, TEXTN
        li    $s1, 0
        li    $s2, 0          # letters remaining in current word
gen:    bnez  $s2, genletter
        jal   rand
        andi  $s2, $v1, 7
        addiu $s2, $s2, 3     # new word length 3..10
        li    $t0, ' '
        b     genput
genletter:
        jal   rand
        li    $at, 26
        divu  $v1, $at
        mfhi  $t0
        addiu $t0, $t0, 'a'
        addiu $s2, $s2, -1
genput: addu  $t1, $s0, $s1
        sb    $t0, 0($t1)
        addiu $s1, $s1, 1
        blt   $s1, $s6, gen

        li    $s3, 0          # total score
        li    $s4, 0          # unique words
        li    $s5, 0          # pass
pass:   li    $s1, 0          # text index
scan:   addu  $t0, $s0, $s1
        lbu   $t1, 0($t0)
        li    $at, ' '
        beq   $t1, $at, skipsp
        # start of a word: hash and score until space or end
        li    $t2, 5381       # hash
        li    $t3, 0          # word score
word:   sll   $t4, $t2, 5
        addu  $t2, $t4, $t2   # hash *= 33
        addu  $t2, $t2, $t1   # hash += c
        addiu $t4, $t1, -'a'
        la    $at, lval
        addu  $t4, $t4, $at
        lbu   $t4, 0($t4)
        addu  $t3, $t3, $t4   # score += letter value
        addiu $s1, $s1, 1
        beq   $s1, $s6, wend
        addu  $t0, $s0, $s1
        lbu   $t1, 0($t0)
        li    $at, ' '
        bne   $t1, $at, word
wend:   addu  $s3, $s3, $t3   # total += word score
        # dedupe: probe the hash set
        beqz  $t2, scannext   # never happens, defensive
        srl   $t5, $t2, %[5]d
        %[6]s
probe:  sll   $t6, $t5, 2
        la    $at, hset
        addu  $t6, $t6, $at
        lw    $t7, 0($t6)
        beq   $t7, $t2, scannext   # already seen
        beqz  $t7, fresh
        addiu $t5, $t5, 1
        %[6]s
        b     probe
fresh:  sw    $t2, 0($t6)
        addiu $s4, $s4, 1
        b     scannext
skipsp: addiu $s1, $s1, 1
scannext:
        blt   $s1, $s6, scan
        addiu $s5, $s5, 1
        slti  $at, $s5, 3     # three passes over the text
        bnez  $at, pass

        move  $a0, $s3
        li    $v0, 1
        syscall
        li    $a0, ' '
        li    $v0, 11
        syscall
        move  $a0, $s4
        li    $v0, 1
        syscall
        li    $v0, 10
        syscall
` + randAsm

// perlSet sizes the dedupe set and picks the home slot, hash >> shift
// masked to the set. Up to scale 4 it keeps 4096 slots and shift 3, so
// those programs are unchanged. Above, the text's ~819 words per unit of
// scale need a larger set for the probe to find an empty slot, and the low
// hash bits: shifted out, three-letter words crowd ~3,500 home slots and
// the probe chains grow with the square of the text.
func perlSet(scale int) (slots int, shift uint) {
	if scale <= 4 {
		return 4096, 3
	}
	slots = 8192
	for slots < 2048*scale {
		slots *= 2
	}
	return slots, 0
}

var perlLetterValues = [26]uint32{1, 3, 3, 2, 1, 4, 2, 4, 1, 8, 5, 1, 3, 1, 1, 3, 10, 1, 1, 1, 1, 4, 4, 8, 4, 10}

func goldenPerl(scale int) string {
	n := 6144 * scale
	s := lcg(0x9E71)
	text := make([]byte, n)
	remaining := 0
	for i := 0; i < n; i++ {
		if remaining == 0 {
			remaining = int(s.next()&7) + 3
			text[i] = ' '
			continue
		}
		text[i] = byte(s.next()%26) + 'a'
		remaining--
	}
	slots, shift := perlSet(scale)
	hset := make([]uint32, slots)
	mask := uint32(slots - 1)
	var total, unique uint32
	for pass := 0; pass < 3; pass++ {
		i := 0
		for i < n {
			if text[i] == ' ' {
				i++
				continue
			}
			hash := uint32(5381)
			var score uint32
			for i < n && text[i] != ' ' {
				hash = hash*33 + uint32(text[i])
				score += perlLetterValues[text[i]-'a']
				i++
			}
			total += score
			h := hash >> shift & mask
			for {
				if hset[h] == hash {
					break
				}
				if hset[h] == 0 {
					hset[h] = hash
					unique++
					break
				}
				h = (h + 1) & mask
			}
		}
	}
	return fmt.Sprintf("%d %d", int32(total), int32(unique))
}
