package orm

import (
	"fmt"
	"strings"

	"feralcc/internal/db"
	"feralcc/internal/storage"
)

// ValidationContext gives validators access to the record being saved and,
// crucially, to the enclosing save transaction's connection — uniqueness and
// association-presence validators issue SELECT probes through it, exactly
// the feral protocol of Appendix B whose isolation-sensitivity the paper
// quantifies.
type ValidationContext struct {
	Conn    db.Conn
	Session *Session
	Record  *Record
	// OnDelete is true when validations run for a destroy (only custom
	// validators observe destroys in this reproduction).
	OnDelete bool
}

// Exec runs a probe query. When the context has a Session, the statement
// goes through its prepared-statement cache (the validation probes are the
// hottest statements the ORM issues); otherwise it executes directly on the
// connection.
func (ctx *ValidationContext) Exec(sql string, args ...storage.Value) (*db.Result, error) {
	if ctx.Session != nil {
		return ctx.Session.exec(sql, args...)
	}
	return ctx.Conn.Exec(sql, args...)
}

// sqlText renders a probe's text through the session's text cache when the
// context has a session.
func (ctx *ValidationContext) sqlText(k sqlKey, build func() string) string {
	if ctx.Session != nil {
		return ctx.Session.sqlText(k, build)
	}
	return build()
}

// Validation is one declared correctness criterion. Fails appends messages.
type Validation interface {
	// Name returns the Rails-style validator name, e.g.
	// "validates_uniqueness_of". The corpus analyzer and the I-confluence
	// classifier key off these names.
	Name() string
	// Field returns the primary attribute validated ("" when not
	// field-scoped).
	Field() string
	// Validate returns nil when the record passes, or a message.
	Validate(ctx *ValidationContext) (string, error)
	// check verifies the validator is consistent with the model definition.
	check(m *Model) error
}

// fieldCheck verifies a validator's field exists on the model.
func fieldCheck(m *Model, validator, field string) error {
	if field == "" {
		return fmt.Errorf("%w: %s on %s has no field", ErrBadDefinition, validator, m.Name)
	}
	if m.attr(field) == nil && !strings.EqualFold(field, "id") {
		return fmt.Errorf("%w: %s validates unknown attribute %s.%s",
			ErrBadDefinition, validator, m.Name, field)
	}
	return nil
}

// --- validates_presence_of ---------------------------------------------------

// Presence requires a non-NULL, non-empty value. When the field is an
// association foreign key, this is the feral referential-integrity check the
// paper shows to be unsafe under concurrent deletion: the parent's existence
// is probed with a SELECT inside the save transaction.
type Presence struct {
	Attr string
	// Association, when set, names a BelongsTo association whose target row
	// must exist (Rails `validates :department, presence: true`).
	Association string
}

func (v *Presence) Name() string  { return "validates_presence_of" }
func (v *Presence) Field() string { return v.Attr }

func (v *Presence) check(m *Model) error {
	if v.Association != "" {
		a := m.association(v.Association)
		if a == nil || a.Kind != BelongsTo {
			return fmt.Errorf("%w: presence of unknown belongs_to %s.%s",
				ErrBadDefinition, m.Name, v.Association)
		}
		return nil
	}
	return fieldCheck(m, v.Name(), v.Attr)
}

func (v *Presence) Validate(ctx *ValidationContext) (string, error) {
	if v.Association != "" {
		a := ctx.Record.model.association(v.Association)
		fk := a.fkFor()
		ref, err := ctx.Record.Get(fk)
		if err != nil {
			return "", err
		}
		if ref.IsNull() {
			return fmt.Sprintf("%s can't be blank", v.Association), nil
		}
		target, err := ctx.Session.registry.Model(a.Target)
		if err != nil {
			return "", err
		}
		// Appendix B.2: SELECT 1 FROM parents WHERE id = ? LIMIT 1.
		res, err := ctx.Exec(
			fmt.Sprintf("SELECT 1 FROM %s WHERE id = ? LIMIT 1", target.Table()), ref)
		if err != nil {
			return "", err
		}
		if len(res.Rows) == 0 {
			return fmt.Sprintf("%s must exist", v.Association), nil
		}
		return "", nil
	}
	val, err := ctx.Record.Get(v.Attr)
	if err != nil {
		return "", err
	}
	if val.IsNull() || (val.Kind == storage.KindString && strings.TrimSpace(val.S) == "") {
		return fmt.Sprintf("%s can't be blank", v.Attr), nil
	}
	return "", nil
}

// --- validates_uniqueness_of -------------------------------------------------

// Uniqueness is the feral uniqueness check of Appendix B.1: SELECT 1 FROM
// table WHERE field = ? LIMIT 1, then insert if absent. The Rails
// documentation itself concedes this admits duplicates without a database
// unique index; Section 5.2 of the paper measures how many.
type Uniqueness struct {
	Attr string
	// Scope optionally restricts uniqueness to rows matching another
	// attribute (Rails `scope:`).
	Scope string
	// CaseSensitive matches Rails's default (true).
	CaseInsensitive bool
}

func (v *Uniqueness) Name() string  { return "validates_uniqueness_of" }
func (v *Uniqueness) Field() string { return v.Attr }

func (v *Uniqueness) check(m *Model) error {
	if err := fieldCheck(m, v.Name(), v.Attr); err != nil {
		return err
	}
	if v.Scope != "" {
		return fieldCheck(m, v.Name(), v.Scope)
	}
	return nil
}

func (v *Uniqueness) Validate(ctx *ValidationContext) (string, error) {
	val, err := ctx.Record.Get(v.Attr)
	if err != nil {
		return "", err
	}
	if val.IsNull() {
		return "", nil // Rails skips uniqueness on nil unless presence is also declared
	}
	m := ctx.Record.model
	var res *db.Result
	if v.CaseInsensitive && val.Kind == storage.KindString {
		// No LOWER() in the engine's SQL dialect: fetch candidates and fold
		// case client-side, as some Rails adapters effectively do.
		all, qerr := ctx.Exec(ctx.sqlText(sqlKey{m: m, op: sqlUniqueFold, attr: v.Attr}, func() string {
			return fmt.Sprintf("SELECT id, %s FROM %s", v.Attr, m.Table())
		}))
		if qerr != nil {
			return "", qerr
		}
		res = &db.Result{}
		want := strings.ToLower(val.S)
		for _, row := range all.Rows {
			if row[1].Kind == storage.KindString && strings.ToLower(row[1].S) == want {
				res.Rows = append(res.Rows, row[:1])
			}
		}
	} else {
		args := []storage.Value{val}
		if v.Scope != "" {
			scopeVal, serr := ctx.Record.Get(v.Scope)
			if serr != nil {
				return "", serr
			}
			args = append(args, scopeVal)
		}
		query := ctx.sqlText(sqlKey{m: m, op: sqlUniqueProbe, attr: v.Attr, scope: v.Scope}, func() string {
			q := fmt.Sprintf("SELECT id FROM %s WHERE %s = ?", m.Table(), v.Attr)
			if v.Scope != "" {
				q += fmt.Sprintf(" AND %s = ?", v.Scope)
			}
			return q + " LIMIT 2"
		})
		res, err = ctx.Exec(query, args...)
		if err != nil {
			return "", err
		}
	}
	for _, row := range res.Rows {
		// A persisted record matching itself is not a duplicate.
		if ctx.Record.persisted && row[0].I == ctx.Record.ID() {
			continue
		}
		return fmt.Sprintf("%s has already been taken", v.Attr), nil
	}
	return "", nil
}

// --- validates_length_of -----------------------------------------------------

// Length bounds a string attribute's length. I-confluent: it constrains the
// value in memory only.
type Length struct {
	Attr     string
	Min, Max int // Max 0 means unbounded
}

func (v *Length) Name() string  { return "validates_length_of" }
func (v *Length) Field() string { return v.Attr }
func (v *Length) check(m *Model) error {
	return fieldCheck(m, v.Name(), v.Attr)
}

func (v *Length) Validate(ctx *ValidationContext) (string, error) {
	val, err := ctx.Record.Get(v.Attr)
	if err != nil {
		return "", err
	}
	if val.IsNull() {
		return "", nil
	}
	n := len([]rune(val.Format()))
	if n < v.Min {
		return fmt.Sprintf("%s is too short (minimum is %d characters)", v.Attr, v.Min), nil
	}
	if v.Max > 0 && n > v.Max {
		return fmt.Sprintf("%s is too long (maximum is %d characters)", v.Attr, v.Max), nil
	}
	return "", nil
}

// --- validates_inclusion_of ----------------------------------------------------

// Inclusion requires the value to be among a fixed set. I-confluent.
type Inclusion struct {
	Attr string
	In   []storage.Value
}

func (v *Inclusion) Name() string  { return "validates_inclusion_of" }
func (v *Inclusion) Field() string { return v.Attr }
func (v *Inclusion) check(m *Model) error {
	return fieldCheck(m, v.Name(), v.Attr)
}

func (v *Inclusion) Validate(ctx *ValidationContext) (string, error) {
	val, err := ctx.Record.Get(v.Attr)
	if err != nil {
		return "", err
	}
	for _, allowed := range v.In {
		if storage.Equal(val, allowed) {
			return "", nil
		}
	}
	return fmt.Sprintf("%s is not included in the list", v.Attr), nil
}

// --- validates_numericality_of -------------------------------------------------

// Numericality requires a numeric value with optional bounds. The
// GreaterThanOrEqualTo bound is how Spree keeps stock counts non-negative —
// which, as Section 3.2 notes, prevents negative balances but not Lost
// Updates.
type Numericality struct {
	Attr                 string
	OnlyInteger          bool
	GreaterThanOrEqualTo *float64
	LessThanOrEqualTo    *float64
}

func (v *Numericality) Name() string  { return "validates_numericality_of" }
func (v *Numericality) Field() string { return v.Attr }
func (v *Numericality) check(m *Model) error {
	return fieldCheck(m, v.Name(), v.Attr)
}

func (v *Numericality) Validate(ctx *ValidationContext) (string, error) {
	val, err := ctx.Record.Get(v.Attr)
	if err != nil {
		return "", err
	}
	if val.IsNull() {
		return fmt.Sprintf("%s is not a number", v.Attr), nil
	}
	var f float64
	switch val.Kind {
	case storage.KindInt:
		f = float64(val.I)
	case storage.KindFloat:
		if v.OnlyInteger {
			return fmt.Sprintf("%s must be an integer", v.Attr), nil
		}
		f = val.F
	default:
		return fmt.Sprintf("%s is not a number", v.Attr), nil
	}
	if v.GreaterThanOrEqualTo != nil && f < *v.GreaterThanOrEqualTo {
		return fmt.Sprintf("%s must be greater than or equal to %g", v.Attr, *v.GreaterThanOrEqualTo), nil
	}
	if v.LessThanOrEqualTo != nil && f > *v.LessThanOrEqualTo {
		return fmt.Sprintf("%s must be less than or equal to %g", v.Attr, *v.LessThanOrEqualTo), nil
	}
	return "", nil
}

// --- validates_associated ------------------------------------------------------

// Associated re-runs the target record's validations when saving the owner
// (Rails validates_associated). In this reproduction it checks that the
// association target exists, the part of the semantics that is
// isolation-sensitive.
type Associated struct {
	AssociationName string
}

func (v *Associated) Name() string  { return "validates_associated" }
func (v *Associated) Field() string { return v.AssociationName }
func (v *Associated) check(m *Model) error {
	if m.association(v.AssociationName) == nil {
		return fmt.Errorf("%w: validates_associated on unknown association %s.%s",
			ErrBadDefinition, m.Name, v.AssociationName)
	}
	return nil
}

func (v *Associated) Validate(ctx *ValidationContext) (string, error) {
	a := ctx.Record.model.association(v.AssociationName)
	if a.Kind != BelongsTo {
		return "", nil // has_many targets validate themselves on their own saves
	}
	p := &Presence{Association: v.AssociationName}
	msg, err := p.Validate(ctx)
	if err != nil || msg == "" {
		return msg, err
	}
	return fmt.Sprintf("%s is invalid", v.AssociationName), nil
}

// --- validates_email (format check) --------------------------------------------

// Email is the common custom-format validation. I-confluent.
type Email struct{ Attr string }

func (v *Email) Name() string  { return "validates_email" }
func (v *Email) Field() string { return v.Attr }
func (v *Email) check(m *Model) error {
	return fieldCheck(m, v.Name(), v.Attr)
}

func (v *Email) Validate(ctx *ValidationContext) (string, error) {
	val, err := ctx.Record.Get(v.Attr)
	if err != nil {
		return "", err
	}
	if val.IsNull() {
		return "", nil
	}
	s := val.Format()
	at := strings.IndexByte(s, '@')
	dot := strings.LastIndexByte(s, '.')
	if at <= 0 || dot < at+2 || dot == len(s)-1 || strings.ContainsAny(s, " \t") {
		return fmt.Sprintf("%s is not a valid email address", v.Attr), nil
	}
	return "", nil
}

// --- validates_attachment_content_type / _size ----------------------------------

// AttachmentContentType whitelists MIME types (Paperclip-style). I-confluent.
type AttachmentContentType struct {
	Attr    string
	Allowed []string
}

func (v *AttachmentContentType) Name() string  { return "validates_attachment_content_type" }
func (v *AttachmentContentType) Field() string { return v.Attr }
func (v *AttachmentContentType) check(m *Model) error {
	return fieldCheck(m, v.Name(), v.Attr)
}

func (v *AttachmentContentType) Validate(ctx *ValidationContext) (string, error) {
	val, err := ctx.Record.Get(v.Attr)
	if err != nil {
		return "", err
	}
	if val.IsNull() {
		return "", nil
	}
	for _, a := range v.Allowed {
		if strings.EqualFold(a, val.Format()) {
			return "", nil
		}
	}
	return fmt.Sprintf("%s has a disallowed content type", v.Attr), nil
}

// AttachmentSize bounds an attachment's byte size. I-confluent.
type AttachmentSize struct {
	Attr     string
	MaxBytes int64
}

func (v *AttachmentSize) Name() string  { return "validates_attachment_size" }
func (v *AttachmentSize) Field() string { return v.Attr }
func (v *AttachmentSize) check(m *Model) error {
	return fieldCheck(m, v.Name(), v.Attr)
}

func (v *AttachmentSize) Validate(ctx *ValidationContext) (string, error) {
	val, err := ctx.Record.Get(v.Attr)
	if err != nil {
		return "", err
	}
	if val.IsNull() {
		return "", nil
	}
	if val.Kind == storage.KindInt && val.I > v.MaxBytes {
		return fmt.Sprintf("%s is too large (maximum %d bytes)", v.Attr, v.MaxBytes), nil
	}
	return "", nil
}

// --- validates_confirmation_of ---------------------------------------------------

// Confirmation requires attr == attr_confirmation (e.g. password re-entry).
// I-confluent: both values live in the record being saved.
type Confirmation struct{ Attr string }

func (v *Confirmation) Name() string  { return "validates_confirmation_of" }
func (v *Confirmation) Field() string { return v.Attr }
func (v *Confirmation) check(m *Model) error {
	if err := fieldCheck(m, v.Name(), v.Attr); err != nil {
		return err
	}
	return fieldCheck(m, v.Name(), v.Attr+"_confirmation")
}

func (v *Confirmation) Validate(ctx *ValidationContext) (string, error) {
	val, err := ctx.Record.Get(v.Attr)
	if err != nil {
		return "", err
	}
	conf, err := ctx.Record.Get(v.Attr + "_confirmation")
	if err != nil {
		return "", err
	}
	if conf.IsNull() {
		return "", nil // Rails skips when the confirmation field is absent
	}
	if !storage.Equal(val, conf) {
		return fmt.Sprintf("%s doesn't match confirmation", v.Attr), nil
	}
	return "", nil
}

// --- validates_exclusion_of ------------------------------------------------------

// Exclusion rejects values from a fixed blacklist (reserved usernames,
// subdomains). I-confluent.
type Exclusion struct {
	Attr string
	From []storage.Value
}

func (v *Exclusion) Name() string  { return "validates_exclusion_of" }
func (v *Exclusion) Field() string { return v.Attr }
func (v *Exclusion) check(m *Model) error {
	return fieldCheck(m, v.Name(), v.Attr)
}

func (v *Exclusion) Validate(ctx *ValidationContext) (string, error) {
	val, err := ctx.Record.Get(v.Attr)
	if err != nil {
		return "", err
	}
	for _, banned := range v.From {
		if storage.Equal(val, banned) {
			return fmt.Sprintf("%s is reserved", v.Attr), nil
		}
	}
	return "", nil
}

// --- validates_format_of ---------------------------------------------------------

// Format requires the value to match a SQL-LIKE-style pattern (% and _
// wildcards), the engine's stand-in for Rails's regexp formats. I-confluent.
type Format struct {
	Attr string
	// Like is the pattern the value must match.
	Like string
}

func (v *Format) Name() string  { return "validates_format_of" }
func (v *Format) Field() string { return v.Attr }
func (v *Format) check(m *Model) error {
	if v.Like == "" {
		return fmt.Errorf("%w: validates_format_of on %s.%s has no pattern",
			ErrBadDefinition, m.Name, v.Attr)
	}
	return fieldCheck(m, v.Name(), v.Attr)
}

func (v *Format) Validate(ctx *ValidationContext) (string, error) {
	val, err := ctx.Record.Get(v.Attr)
	if err != nil {
		return "", err
	}
	if val.IsNull() {
		return "", nil
	}
	if !likeMatch(val.Format(), v.Like) {
		return fmt.Sprintf("%s is invalid", v.Attr), nil
	}
	return "", nil
}

// likeMatch implements the % / _ wildcard match (same semantics as the SQL
// executor's LIKE).
func likeMatch(s, pattern string) bool {
	var match func(si, pi int) bool
	match = func(si, pi int) bool {
		for pi < len(pattern) {
			switch pattern[pi] {
			case '%':
				for pi < len(pattern) && pattern[pi] == '%' {
					pi++
				}
				if pi == len(pattern) {
					return true
				}
				for k := si; k <= len(s); k++ {
					if match(k, pi) {
						return true
					}
				}
				return false
			case '_':
				if si >= len(s) {
					return false
				}
				si++
				pi++
			default:
				if si >= len(s) || s[si] != pattern[pi] {
					return false
				}
				si++
				pi++
			}
		}
		return si == len(s)
	}
	return match(0, 0)
}

// --- custom (user-defined) validations --------------------------------------------

// Custom wraps an arbitrary user-defined validation function, the analogue
// of Rails validates_each blocks and validator classes. Section 4.3 of the
// paper found 60 of these across the corpus, 18 of them not I-confluent
// (e.g. Spree's AvailabilityValidator reading stock levels).
type Custom struct {
	ValidatorName string
	Attr          string
	// Fn returns a failure message ("" = pass). It may query through
	// ctx.Conn, which is what makes custom validations potentially
	// coordination-requiring.
	Fn func(ctx *ValidationContext) (string, error)
}

func (v *Custom) Name() string {
	if v.ValidatorName != "" {
		return v.ValidatorName
	}
	return "validates_each"
}
func (v *Custom) Field() string { return v.Attr }
func (v *Custom) check(m *Model) error {
	if v.Fn == nil {
		return fmt.Errorf("%w: custom validation %s on %s has no function",
			ErrBadDefinition, v.Name(), m.Name)
	}
	return nil
}

func (v *Custom) Validate(ctx *ValidationContext) (string, error) {
	return v.Fn(ctx)
}
